package fm

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// FuzzRecurrenceMaterialize drives Recurrence.Materialize and the
// legality checker with arbitrary dims, dependence offsets, and widths.
// The contract under fuzz: bad input is reported as an error, never a
// panic; good input materializes a graph whose domain indexing round-
// trips, whose fingerprint Recurrence.Fingerprint reproduces without
// building it, and whose serial mapping passes Check.
func FuzzRecurrenceMaterialize(f *testing.F) {
	// The paper's edit-distance dependence structure, plus degenerate and
	// invalid shapes seeding the interesting branches.
	f.Add(4, 4, 1, 1, 1, 0, 0, 1, 32)    // classic DP cell
	f.Add(1, 1, 1, 1, 1, 0, 0, 1, 8)     // single cell, all deps off-domain
	f.Add(3, 5, 2, -1, 1, 2, 0, 3, 16)   // skewed offsets
	f.Add(0, 4, 1, 1, 1, 0, 0, 1, 32)    // zero extent: must error
	f.Add(4, 4, 0, -1, 1, 1, 0, 1, 64)   // lex-negative offset: must error
	f.Add(4, 4, 1, 1, 1, 0, 0, 1, 0)     // zero width: must error
	f.Add(4, 4, 1, 1, 1, 0, 0, 1, 1<<30) // absurd width: must error, not panic
	f.Add(2, 2, 0, 0, 0, 0, 0, 0, 32)    // all-zero offsets: must error

	f.Fuzz(func(t *testing.T, d0, d1, a0, a1, b0, b1, c0, c1, bits int) {
		// Cap only the *valid* extents so fuzzing explores structure
		// rather than allocator limits; invalid extents pass through
		// untouched because Validate must reject them itself.
		if d0 > 48 {
			d0 = 48
		}
		if d1 > 48 {
			d1 = 48
		}
		r := Recurrence{
			Name: "fuzz",
			Dims: []int{d0, d1},
			Deps: [][]int{{a0, a1}, {b0, b1}, {c0, c1}},
			Op:   tech.OpAdd,
			Bits: bits,
		}
		g, dom, err := r.Materialize()
		fp, fpErr := r.Fingerprint()
		if err != nil {
			if g != nil || dom != nil {
				t.Fatal("Materialize returned both an error and a result")
			}
			if fpErr == nil || fpErr.Error() != err.Error() {
				t.Fatalf("Fingerprint error %v, Materialize error %v", fpErr, err)
			}
			return
		}
		if fpErr != nil || fp != g.Fingerprint() {
			t.Fatalf("Fingerprint = %016x, %v; materialized graph hashes %016x", fp, fpErr, g.Fingerprint())
		}
		if got := dom.Size(); got != g.NumNodes() {
			t.Fatalf("domain size %d != node count %d", got, g.NumNodes())
		}
		if g.NumNodes() == 0 {
			t.Fatal("materialized an empty graph without error")
		}
		// Domain indexing round-trips for every cell.
		idx := make([]int, 2)
		for n := 0; n < g.NumNodes(); n++ {
			if got := dom.Node(dom.Index(NodeID(n), idx)...); got != NodeID(n) {
				t.Fatalf("index round-trip: node %d -> %v -> %d", n, idx, got)
			}
		}
		// Dependencies are acyclic by ID order and in-domain.
		for n := 0; n < g.NumNodes(); n++ {
			for _, d := range g.Deps(NodeID(n)) {
				if d >= NodeID(n) {
					t.Fatalf("node %d depends on later node %d", n, d)
				}
			}
		}
		// Something must be an output (the last cell is consumed by nobody).
		if len(g.Outputs()) == 0 {
			t.Fatal("materialized recurrence has no outputs")
		}
		// Legality: with enough memory, the serial projection of any
		// materialized recurrence is a legal mapping.
		tgt := DefaultTarget(2, 2)
		tgt.MemWordsPerNode = 1 << 30
		if err := Check(g, SerialSchedule(g, tgt, geom.Pt(0, 0)), tgt); err != nil {
			t.Fatalf("serial schedule of materialized recurrence illegal: %v", err)
		}
	})
}
