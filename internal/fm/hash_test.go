package fm

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func hashChain(name string, n int, bits int, markLast bool) *Graph {
	b := NewBuilder(name)
	id := b.Input(bits)
	for i := 1; i < n; i++ {
		id = b.Op(tech.OpAdd, bits, id)
	}
	if markLast {
		b.MarkOutput(id)
	}
	return b.Build()
}

func TestGraphFingerprintStable(t *testing.T) {
	g1 := hashChain("a", 10, 32, true)
	g2 := hashChain("b", 10, 32, true) // different name, same structure
	if g1.Fingerprint() != g1.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Error("name changed the structural fingerprint")
	}
}

func TestGraphFingerprintSensitivity(t *testing.T) {
	base := hashChain("g", 10, 32, true)
	perturbed := map[string]*Graph{
		"length":    hashChain("g", 11, 32, true),
		"width":     hashChain("g", 10, 16, true),
		"no-output": hashChain("g", 10, 32, false),
	}
	// Different op class.
	b := NewBuilder("g")
	id := b.Input(32)
	for i := 1; i < 10; i++ {
		id = b.Op(tech.OpMul, 32, id)
	}
	b.MarkOutput(id)
	perturbed["op"] = b.Build()
	// Different wiring: same node count, deps rearranged.
	b2 := NewBuilder("g")
	in := b2.Input(32)
	prev := in
	for i := 1; i < 9; i++ {
		prev = b2.Op(tech.OpAdd, 32, prev)
	}
	b2.MarkOutput(b2.Op(tech.OpAdd, 32, in)) // last node depends on input, not chain
	perturbed["wiring"] = b2.Build()

	for what, g := range perturbed {
		if g.Fingerprint() == base.Fingerprint() {
			t.Errorf("changing %s did not change the fingerprint", what)
		}
	}
}

func TestScheduleFingerprintSensitivity(t *testing.T) {
	s := Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(1, 0), Time: 3},
	}
	base := s.Fingerprint()
	if base != s.Fingerprint() {
		t.Error("schedule fingerprint not deterministic")
	}
	moved := Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(0, 1), Time: 3},
	}
	delayed := Schedule{
		{Place: geom.Pt(0, 0), Time: 0},
		{Place: geom.Pt(1, 0), Time: 4},
	}
	short := s[:1]
	for what, other := range map[string]Schedule{"place": moved, "time": delayed, "length": short} {
		if other.Fingerprint() == base {
			t.Errorf("changing %s did not change the schedule fingerprint", what)
		}
	}
}

func TestScheduleFingerprintNegativeCoords(t *testing.T) {
	// Off-grid (negative) coordinates are unusual but must still hash
	// without losing information to the uint32 packing.
	a := Schedule{{Place: geom.Pt(-1, 0), Time: 0}}
	b := Schedule{{Place: geom.Pt(0, -1), Time: 0}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("negative coordinates collide")
	}
}
