package fm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// costsBitEqual compares two Costs bit-for-bit: the delta evaluator's
// contract is bitwise identity with Evaluate, not tolerance-band
// closeness, because search determinism (delta on ≡ delta off) rides on
// identical accept/reject decisions.
func costsBitEqual(a, b Cost) bool {
	return a.Cycles == b.Cycles &&
		math.Float64bits(a.TimePS) == math.Float64bits(b.TimePS) &&
		math.Float64bits(a.EnergyFJ) == math.Float64bits(b.EnergyFJ) &&
		math.Float64bits(a.ComputeEnergy) == math.Float64bits(b.ComputeEnergy) &&
		math.Float64bits(a.WireEnergy) == math.Float64bits(b.WireEnergy) &&
		math.Float64bits(a.OffChipEnergy) == math.Float64bits(b.OffChipEnergy) &&
		a.BitHops == b.BitHops &&
		a.Messages == b.Messages &&
		a.PeakWordsPerNode == b.PeakWordsPerNode &&
		a.PlacesUsed == b.PlacesUsed &&
		a.Ops == b.Ops
}

// trickyGraph exercises the storage and flow corner cases one graph can
// hold: duplicate dependencies, multi-consumer fanout, a dead value
// (consumed by nobody, not an output), multiple outputs, and an input
// nobody reads.
func trickyGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("tricky")
	x := b.Input(32)
	y := b.Input(64)
	_ = b.Input(32)                 // never consumed
	s := b.Op(tech.OpAdd, 32, x, x) // duplicate dep
	m := b.Op(tech.OpMul, 64, s, y)
	_ = b.Op(tech.OpAdd, 32, s) // dead value
	f1 := b.Op(tech.OpAdd, 32, s, m)
	f2 := b.Op(tech.OpAdd, 128, m, m)
	b.MarkOutput(f1)
	b.MarkOutput(f2)
	b.MarkOutput(f2) // duplicate output declaration
	return b.Build()
}

func randomPlacement(rng *rand.Rand, g *Graph, tgt Target) []geom.Point {
	place := make([]geom.Point, g.NumNodes())
	for i := range place {
		place[i] = tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
	}
	return place
}

func fullCost(t *testing.T, g *Graph, place []geom.Point, tgt Target) Cost {
	t.Helper()
	c, err := Evaluate(g, ASAPSchedule(g, place, tgt), tgt, EvalOptions{SkipCheck: true})
	if err != nil {
		t.Fatalf("full evaluate: %v", err)
	}
	return c
}

func TestDeltaResetMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tgt := DefaultTarget(4, 3)
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 20+rng.Intn(60))
		d, err := NewDeltaEvaluator(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []Schedule{
			ASAPSchedule(g, randomPlacement(rng, g, tgt), tgt),
			ListSchedule(g, tgt),
			SerialSchedule(g, tgt, geom.Pt(1, 1)),
		} {
			want, err := Evaluate(g, sched, tgt, EvalOptions{SkipCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Reset(sched)
			if err != nil {
				t.Fatal(err)
			}
			if !costsBitEqual(got, want) {
				t.Fatalf("trial %d: Reset cost diverges:\n got %v\nwant %v", trial, got, want)
			}
			if c := d.Cost(); !costsBitEqual(c, want) {
				t.Fatalf("trial %d: Cost() after Reset diverges: %v vs %v", trial, c, want)
			}
		}
	}
}

func TestDeltaProposeMatchesFullReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tgt := DefaultTarget(4, 4)
	graphs := []*Graph{
		trickyGraph(t),
		randomDAG(rand.New(rand.NewSource(5)), 40),
		randomDAG(rand.New(rand.NewSource(6)), 90),
	}
	for gi, g := range graphs {
		d, err := NewDeltaEvaluator(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		place := randomPlacement(rng, g, tgt)
		// Reset need not start from ASAP times: proposals re-time from
		// the first late start until a commit.
		sched := ASAPSchedule(g, place, tgt)
		sched[rng.Intn(len(sched))].Time += 3
		if _, err := d.Reset(sched); err != nil {
			t.Fatal(err)
		}
		for mv := 0; mv < 300; mv++ {
			n := NodeID(rng.Intn(g.NumNodes()))
			to := tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
			cyclesOnly := mv%2 == 0
			var got Cost
			if cyclesOnly {
				got.Cycles = d.ProposeCycles(n, to)
			} else {
				got = d.Propose(n, to)
			}

			old := place[n]
			place[n] = to
			want := fullCost(t, g, place, tgt)
			if cyclesOnly && got.Cycles != want.Cycles {
				t.Fatalf("graph %d move %d (node %d %v->%v): ProposeCycles = %d, want %d",
					gi, mv, n, old, to, got.Cycles, want.Cycles)
			}
			if !cyclesOnly && !costsBitEqual(got, want) {
				t.Fatalf("graph %d move %d (node %d %v->%v): Propose diverges:\n got %+v\nwant %+v",
					gi, mv, n, old, to, got, want)
			}
			if rng.Intn(2) == 0 {
				d.Commit()
				if c := d.Cost(); !costsBitEqual(c, want) {
					t.Fatalf("graph %d move %d: Cost() after Commit diverges", gi, mv)
				}
			} else {
				place[n] = old // rejected: the reference state rolls back too
			}
		}
		// The committed mapping equals an independently built ASAP schedule.
		wantSched := ASAPSchedule(g, place, tgt)
		gotSched := d.Snapshot(nil)
		for i := range wantSched {
			if gotSched[i] != wantSched[i] {
				t.Fatalf("graph %d: snapshot[%d] = %+v, want %+v", gi, i, gotSched[i], wantSched[i])
			}
		}
	}
}

func TestDeltaRejectedProposalsLeaveStateIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tgt := DefaultTarget(3, 3)
	g := randomDAG(rng, 35)
	d, err := NewDeltaEvaluator(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	place := randomPlacement(rng, g, tgt)
	base, err := d.Reset(ASAPSchedule(g, place, tgt))
	if err != nil {
		t.Fatal(err)
	}
	for mv := 0; mv < 100; mv++ {
		d.Propose(NodeID(rng.Intn(g.NumNodes())), tgt.Grid.At(rng.Intn(tgt.Grid.Nodes())))
	}
	if c := d.Cost(); !costsBitEqual(c, base) {
		t.Fatalf("cost drifted across rejected proposals: %v vs %v", c, base)
	}
	// A move priced after 100 rejections still matches the full evaluator.
	n, to := NodeID(3), tgt.Grid.At(7)
	got := d.Propose(n, to)
	place[n] = to
	if want := fullCost(t, g, place, tgt); !costsBitEqual(got, want) {
		t.Fatalf("post-rejection Propose diverges: %v vs %v", got, want)
	}
}

func TestDeltaSnapshotReusesBuffer(t *testing.T) {
	tgt := DefaultTarget(3, 3)
	g := trickyGraph(t)
	d, err := NewDeltaEvaluator(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	sched := ListSchedule(g, tgt)
	if _, err := d.Reset(sched); err != nil {
		t.Fatal(err)
	}
	buf := make(Schedule, g.NumNodes())
	out := d.Snapshot(buf)
	if &out[0] != &buf[0] {
		t.Fatal("Snapshot reallocated despite a large-enough buffer")
	}
	for i := range sched {
		if out[i] != sched[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, out[i], sched[i])
		}
	}
}

func TestDeltaProposeCommitDoNotAllocate(t *testing.T) {
	tgt := DefaultTarget(4, 4)
	g := randomDAG(rand.New(rand.NewSource(9)), 60)
	d, err := NewDeltaEvaluator(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reset(ListSchedule(g, tgt)); err != nil {
		t.Fatal(err)
	}
	buf := make(Schedule, g.NumNodes())
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		n := NodeID(i % g.NumNodes())
		to := tgt.Grid.At(i % tgt.Grid.Nodes())
		if i%2 == 0 {
			d.ProposeCycles(n, to)
		} else {
			d.Propose(n, to)
		}
		if i%3 == 0 {
			d.Commit()
			d.Snapshot(buf)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Propose/ProposeCycles/Commit/Snapshot allocate %v allocs/op, want 0", allocs)
	}
}

func TestDeltaValidation(t *testing.T) {
	tgt := DefaultTarget(3, 3)
	if _, err := NewDeltaEvaluator(nil, tgt); err == nil {
		t.Error("NewDeltaEvaluator accepted a nil graph")
	}
	g := trickyGraph(t)
	if _, err := NewDeltaEvaluator(g, Target{Tech: tech.N5()}); err == nil {
		t.Error("NewDeltaEvaluator accepted an empty grid")
	}
	d, err := NewDeltaEvaluator(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reset(make(Schedule, 2)); err == nil {
		t.Error("Reset accepted a short schedule")
	}
	off := ListSchedule(g, tgt)
	off[0].Place = geom.Pt(-1, 5)
	if _, err := d.Reset(off); err == nil {
		t.Error("Reset accepted an off-grid assignment")
	}
	assertPanics(t, "Propose before Reset", func() { d.Propose(0, geom.Pt(0, 0)) })
	if _, err := d.Reset(ListSchedule(g, tgt)); err != nil {
		t.Fatal(err)
	}
	assertPanics(t, "Propose node out of range", func() { d.Propose(NodeID(g.NumNodes()), geom.Pt(0, 0)) })
	assertPanics(t, "Propose off-grid", func() { d.Propose(0, geom.Pt(9, 9)) })
	assertPanics(t, "ProposeCycles off-grid", func() { d.ProposeCycles(0, geom.Pt(9, 9)) })
	assertPanics(t, "Commit without Propose", func() { d.Commit() })
}

// TestDeltaRetimeEdgeCases pins the boundaries of the re-timing pass: it
// starts at the moved node, seeds each place's issue calendar from the
// place's last non-input member below the pass, and keeps Reset's times
// only as far as they are ASAP. Each move is priced both ways (the
// makespan alone, then the full cost at Commit; and the full cost up
// front) and checked against ASAPSchedule + Evaluate.
func TestDeltaRetimeEdgeCases(t *testing.T) {
	g := trickyGraph(t) // inputs 0-2, then s=3, m=4, dead=5, f1=6, f2=7
	last := NodeID(g.NumNodes() - 1)
	row := func(tgt Target, ids ...int) []geom.Point {
		place := make([]geom.Point, g.NumNodes())
		for i := range place {
			place[i] = tgt.Grid.At(ids[i])
		}
		return place
	}
	tgt := DefaultTarget(3, 1)
	cases := []struct {
		name  string
		tgt   Target
		place []geom.Point
		delay NodeID // when >= 0, Reset's schedule starts this node 5 cycles late
		n     NodeID
		to    geom.Point
	}{
		{"move node 0", tgt, row(tgt, 0, 1, 2, 0, 1, 2, 0, 1), -1, 0, geom.Pt(2, 0)},
		{"move the last node", tgt, row(tgt, 0, 1, 2, 0, 1, 2, 0, 1), -1, last, geom.Pt(0, 0)},
		{"move within the same place", tgt, row(tgt, 0, 1, 2, 0, 1, 2, 0, 1), -1, 4, geom.Pt(1, 0)},
		// Place 0 holds only inputs below s, whose operands are all ready
		// there at cycle 0: moving input y re-times s, and the walk back
		// past the inputs must seed its calendar at 0, not 1.
		{"place holds only inputs below n", tgt, row(tgt, 0, 0, 0, 0, 1, 1, 2, 2), -1, 1, geom.Pt(1, 0)},
		// The same, for the moved node itself joining that place.
		{"moved node joins a place of inputs", tgt, row(tgt, 0, 0, 0, 1, 1, 1, 2, 2), -1, 3, geom.Pt(0, 0)},
		{"1x1 grid", DefaultTarget(1, 1), row(DefaultTarget(1, 1), 0, 0, 0, 0, 0, 0, 0, 0), -1, 4, geom.Pt(0, 0)},
		// Reset's times are not ASAP from node 3 on, so moving the last
		// node must re-time from node 3, not from the moved node.
		{"Reset from a schedule that is not ASAP", tgt, row(tgt, 0, 1, 2, 0, 1, 2, 0, 1), 3, last, geom.Pt(2, 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sched := ASAPSchedule(g, c.place, c.tgt)
			if c.delay >= 0 {
				sched[c.delay].Time += 5
			}
			moved := append([]geom.Point(nil), c.place...)
			moved[c.n] = c.to
			want := fullCost(t, g, moved, c.tgt)
			wantSched := ASAPSchedule(g, moved, c.tgt)
			for _, cyclesOnly := range []bool{true, false} {
				d, err := NewDeltaEvaluator(g, c.tgt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.Reset(sched); err != nil {
					t.Fatal(err)
				}
				if cyclesOnly {
					if got := d.ProposeCycles(c.n, c.to); got != want.Cycles {
						t.Fatalf("ProposeCycles = %d, full evaluator %d", got, want.Cycles)
					}
				} else if got := d.Propose(c.n, c.to); !costsBitEqual(got, want) {
					t.Fatalf("Propose diverges:\n got %+v\nwant %+v", got, want)
				}
				d.Commit()
				if got := d.Cost(); !costsBitEqual(got, want) {
					t.Fatalf("cyclesOnly=%v: Cost() after Commit diverges:\n got %+v\nwant %+v", cyclesOnly, got, want)
				}
				gotSched := d.Snapshot(nil)
				for i := range wantSched {
					if gotSched[i] != wantSched[i] {
						t.Fatalf("cyclesOnly=%v: snapshot[%d] = %+v, want %+v", cyclesOnly, i, gotSched[i], wantSched[i])
					}
				}
			}
		})
	}
}
