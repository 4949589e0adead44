package deltacheck

import (
	"math/rand"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/tech"
)

// fuzzGraph builds a deterministic random layered DAG from a seed:
// 4 inputs plus ops compute nodes with 1-3 dependencies each (duplicates
// allowed), the last node an output. The same shape the search tests
// anneal over.
func fuzzGraph(seed int64, ops int) *fm.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := fm.NewBuilder("fuzz")
	var ids []fm.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, b.Input(32))
	}
	for i := 0; i < ops; i++ {
		nd := 1 + rng.Intn(3)
		deps := make([]fm.NodeID, 0, nd)
		for j := 0; j < nd; j++ {
			deps = append(deps, ids[rng.Intn(len(ids))])
		}
		class := tech.OpAdd
		if rng.Intn(3) == 0 {
			class = tech.OpMul
		}
		ids = append(ids, b.Op(class, 32, deps...))
	}
	b.MarkOutput(ids[len(ids)-1])
	return b.Build()
}

// FuzzDeltaEvaluate drives a (graph, schedule, move sequence) triple
// through the Checker: every move is priced incrementally and from
// scratch, and any divergence — in any Cost field, at the bit level —
// fails the run. Three fuzz bytes make one move: node choice, target
// grid point, and a flags byte whose bit 0 decides whether the move
// commits and whose bit 1 prices the makespan alone (ProposeCycles),
// leaving the rest of the cost to be completed and checked at Commit.
func FuzzDeltaEvaluate(f *testing.F) {
	f.Add(int64(1), 30, 3, 3, []byte{0, 0, 1, 5, 8, 0, 20, 3, 1})
	f.Add(int64(42), 60, 4, 4, []byte("annealing-walks-the-grid"))
	f.Add(int64(7), 12, 1, 1, []byte{9, 0, 1, 9, 0, 0}) // 1x1 grid: every move a no-op
	f.Add(int64(9), 80, 8, 1, []byte{1, 2, 3, 4, 5, 6}) // 1-D grid
	f.Add(int64(3), 1, 2, 2, []byte{0, 1, 1, 0, 2, 1})  // minimal graph
	f.Add(int64(11), 45, 2, 5, []byte{250, 250, 250, 17, 17, 17, 80, 80, 80})
	f.Add(int64(5), 70, 4, 1, []byte{40, 1, 3, 60, 2, 2, 10, 3, 3, 69, 0, 3, 0, 2, 1}) // makespan-only proposals, committed and rejected

	f.Fuzz(func(t *testing.T, seed int64, ops, gw, gh int, moves []byte) {
		if ops < 1 {
			ops = 1
		}
		if ops > 120 {
			ops = 120 // bound graph size so fuzzing explores moves, not allocators
		}
		if gw < 1 {
			gw = 1
		}
		if gw > 8 {
			gw = 8
		}
		if gh < 1 {
			gh = 1
		}
		if gh > 8 {
			gh = 8
		}
		g := fuzzGraph(seed, ops)
		tgt := fm.DefaultTarget(gw, gh)
		c, err := New(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		// Start from a deterministic scattered placement derived from the
		// same seed, re-timed ASAP like the annealer's initial state.
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		place := make([]geom.Point, g.NumNodes())
		for i := range place {
			place[i] = tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
		}
		if _, err := c.Reset(fm.ASAPSchedule(g, place, tgt)); err != nil {
			t.Fatalf("Reset diverged: %v", err)
		}
		for i := 0; i+2 < len(moves); i += 3 {
			n := fm.NodeID(int(moves[i]) % g.NumNodes())
			to := tgt.Grid.At(int(moves[i+1]) % tgt.Grid.Nodes())
			if err := c.propose(n, to, moves[i+2]&2 != 0); err != nil {
				t.Fatalf("move %d: %v", i/3, err)
			}
			if moves[i+2]&1 == 1 {
				if err := c.commitChecked(); err != nil {
					t.Fatalf("move %d: %v", i/3, err)
				}
			}
		}
		// Final committed state must still round-trip through Snapshot's
		// internal ASAP cross-check.
		c.Snapshot(nil)
	})
}

// propose prices one move through the Checker, either in full or as
// the makespan alone.
func (c *Checker) propose(n fm.NodeID, to geom.Point, cyclesOnly bool) error {
	if cyclesOnly {
		_, err := c.proposeCyclesChecked(n, to)
		return err
	}
	_, err := c.ProposeChecked(n, to)
	return err
}
