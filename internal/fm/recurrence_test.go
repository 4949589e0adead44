package fm

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// editRec is the paper's edit-distance recurrence over an n x n domain.
func editRec(n int) Recurrence {
	return Recurrence{
		Name: "editdist",
		Dims: []int{n, n},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}
}

func TestRecurrenceValidate(t *testing.T) {
	if err := editRec(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Recurrence{
		{Name: "empty", Bits: 32},
		{Name: "ext", Dims: []int{0}, Bits: 32},
		{Name: "bits", Dims: []int{4}, Bits: 0},
		{Name: "rank", Dims: []int{4, 4}, Deps: [][]int{{1}}, Bits: 32},
		{Name: "zero", Dims: []int{4}, Deps: [][]int{{0}}, Bits: 32},
		{Name: "neg", Dims: []int{4, 4}, Deps: [][]int{{-1, 1}}, Bits: 32},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: expected validation error", r.Name)
		}
	}
	// Lexicographically positive with a negative trailing component is fine.
	ok := Recurrence{Name: "skew", Dims: []int{4, 4}, Deps: [][]int{{1, -1}}, Bits: 32}
	if err := ok.Validate(); err != nil {
		t.Errorf("skew: %v", err)
	}
}

func TestMaterializeEditDistance(t *testing.T) {
	g, dom, err := editRec(4).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 16 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if dom.Size() != 16 {
		t.Fatalf("domain size = %d", dom.Size())
	}
	// Corner (0,0) has no in-domain deps.
	if d := g.Deps(dom.Node(0, 0)); len(d) != 0 {
		t.Errorf("H(0,0) deps = %v", d)
	}
	// Edge (0,2) depends only on (0,1).
	if d := g.Deps(dom.Node(0, 2)); len(d) != 1 || d[0] != dom.Node(0, 1) {
		t.Errorf("H(0,2) deps = %v", d)
	}
	// Interior (2,2) depends on (1,1), (1,2), (2,1).
	d := g.Deps(dom.Node(2, 2))
	want := []NodeID{dom.Node(1, 1), dom.Node(1, 2), dom.Node(2, 1)}
	if len(d) != 3 || d[0] != want[0] || d[1] != want[1] || d[2] != want[2] {
		t.Errorf("H(2,2) deps = %v, want %v", d, want)
	}
	// Only the final corner is unconsumed.
	outs := g.Outputs()
	if len(outs) != 1 || outs[0] != dom.Node(3, 3) {
		t.Errorf("outputs = %v", outs)
	}
	// The longest chain is a monotone staircase of 2n-1 cells.
	if dep := g.Depth(); dep != 7 {
		t.Errorf("depth = %d, want 7", dep)
	}
}

func TestDomainRoundTrip(t *testing.T) {
	_, dom, err := Recurrence{Name: "r", Dims: []int{3, 4, 5}, Op: tech.OpAdd, Bits: 32}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 3)
	for lin := 0; lin < dom.Size(); lin++ {
		dom.Index(NodeID(lin), idx)
		if got := dom.Node(idx...); got != NodeID(lin) {
			t.Fatalf("round trip %d -> %v -> %d", lin, idx, got)
		}
	}
	if len(dom.Dims()) != 3 {
		t.Errorf("Dims = %v", dom.Dims())
	}
	assertPanics(t, "bad rank", func() { dom.Node(1, 2) })
	assertPanics(t, "out of range", func() { dom.Node(3, 0, 0) })
	assertPanics(t, "bad dst", func() { dom.Index(0, make([]int, 2)) })
}

func TestAntiDiagonalLegalAcrossP(t *testing.T) {
	const n = 24
	g, dom, err := editRec(n).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		tgt := DefaultTarget(p, 1)
		stride, err := MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(g, sched, tgt); err != nil {
			t.Errorf("P=%d stride=%d: %v", p, stride, err)
		}
	}
}

func TestAntiDiagonalSpeedsUpWithP(t *testing.T) {
	const n = 24
	g, dom, err := editRec(n).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Start at P=2: with 1 mm pitch a 2-processor systolic array is
	// transit-bound and loses to the co-located P=1 mapping — exactly the
	// communication-dominance effect the cost model exists to expose.
	var prev int64
	for i, p := range []int{2, 4, 8} {
		tgt := DefaultTarget(p, 1)
		tgt.MemWordsPerNode = 1 << 20
		stride, err := MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Evaluate(g, sched, tgt, EvalOptions{})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if i > 0 && c.Cycles >= prev {
			t.Errorf("P=%d (%d cycles) not faster than previous (%d)", p, c.Cycles, prev)
		}
		prev = c.Cycles
	}
}

func TestAntiDiagonalNearestNeighbourOnly(t *testing.T) {
	// All traffic in the anti-diagonal mapping is distance <= P-1 hop
	// (nearest neighbour, except the wrap). Bit-hops per cell stays O(1)
	// for fixed P as n grows — locality the serial-to-DRAM version lacks.
	const n = 16
	g, dom, err := editRec(n).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	p := 4
	tgt := DefaultTarget(p, 1)
	tgt.MemWordsPerNode = 1 << 20
	stride, err := MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Evaluate(g, sched, tgt, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Each cell sends at most one value one hop (to its i+1 row) plus the
	// wrap: total bit-hops bounded by cells * 32 * small constant.
	maxBitHops := int64(n*n) * 32 * 2
	if c.BitHops > maxBitHops {
		t.Errorf("BitHops = %d, want <= %d (nearest-neighbour traffic)", c.BitHops, maxBitHops)
	}
}

func TestScheduleByIndex(t *testing.T) {
	_, dom, err := editRec(3).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	sched := ScheduleByIndex(dom, func(idx []int) Assignment {
		return Assignment{Place: geom.Pt(idx[0], idx[1]), Time: int64(idx[0]*10 + idx[1])}
	})
	if sched[dom.Node(2, 1)].Place != geom.Pt(2, 1) || sched[dom.Node(2, 1)].Time != 21 {
		t.Errorf("assignment = %+v", sched[dom.Node(2, 1)])
	}
}

func TestAntiDiagonalRejectsBadArgs(t *testing.T) {
	_, dom2, _ := editRec(3).Materialize()
	_, dom3, err := Recurrence{Name: "r3", Dims: []int{2, 2, 2}, Op: tech.OpAdd, Bits: 32}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		dom    *Domain
		p      int
		stride int64
	}{
		{"bad p", dom2, 0, 1},
		{"bad stride", dom2, 1, 0},
		{"bad rank", dom3, 2, 1},
	} {
		if _, err := AntiDiagonalScheduleChecked(tc.dom, tc.p, tc.stride, geom.Pt(0, 0)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := MinAntiDiagonalStrideChecked(DefaultTarget(2, 2), tech.OpAdd, 32, 0, 2); err == nil {
		t.Error("bad stride args: accepted")
	}
}

func TestMaterializeInvalid(t *testing.T) {
	if _, _, err := (Recurrence{Name: "bad", Dims: []int{-1}, Bits: 32}).Materialize(); err == nil {
		t.Fatal("want error")
	}
}

// randomRecurrence draws a recurrence of rank 1-3 with extents 1-12, 0-4
// dependence offsets (negative components and duplicates included), any
// of the five ops and a width of 1-64. About one spec in eight breaks one
// rule Validate enforces, so the error path is exercised too.
func randomRecurrence(rng *rand.Rand) Recurrence {
	rank := 1 + rng.Intn(3)
	r := Recurrence{Name: "prop", Op: tech.OpClass(rng.Intn(5)), Bits: 1 + rng.Intn(64)}
	for k := 0; k < rank; k++ {
		r.Dims = append(r.Dims, 1+rng.Intn(12))
	}
	for j, n := 0, rng.Intn(5); j < n; j++ {
		if j > 0 && rng.Intn(4) == 0 {
			r.Deps = append(r.Deps, r.Deps[rng.Intn(j)]) // duplicate
			continue
		}
		off := make([]int, rank)
		for k := range off {
			off[k] = rng.Intn(7) - 3
		}
		if !lexPositive(off) && rng.Intn(10) != 0 {
			// Mostly legal: flip lex-negative offsets, lift all-zero ones.
			for k := range off {
				off[k] = -off[k]
			}
			if !lexPositive(off) {
				off[0] = 1
			}
		}
		r.Deps = append(r.Deps, off)
	}
	switch rng.Intn(24) {
	case 0:
		r.Dims[rng.Intn(rank)] = 0
	case 1:
		r.Bits = 0
	case 2:
		r.Deps = append(r.Deps, make([]int, rank+1))
	}
	return r
}

// TestRecurrenceFingerprintMatchesMaterialize: the streamed fingerprint is
// the materialized graph's, and a spec Materialize rejects is rejected
// with the same error. The value keys the on-disk atlas and picks every
// request's shard, so it must never drift from Graph.Fingerprint.
func TestRecurrenceFingerprintMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	valid := 0
	for i := 0; i < 3000; i++ {
		r := randomRecurrence(rng)
		fp, err := r.Fingerprint()
		g, _, merr := r.Materialize()
		if merr != nil {
			if err == nil || err.Error() != merr.Error() {
				t.Fatalf("spec %d %+v: Fingerprint error %v, Materialize error %v", i, r, err, merr)
			}
			continue
		}
		valid++
		if err != nil || fp != g.Fingerprint() {
			t.Fatalf("spec %d %+v: Fingerprint = %016x, %v; graph hashes %016x", i, r, fp, err, g.Fingerprint())
		}
	}
	if valid < 2000 {
		t.Fatalf("only %d of 3000 random specs were valid; the generator lost coverage", valid)
	}
}
