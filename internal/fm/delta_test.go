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
		if _, err := d.Reset(ASAPSchedule(g, place, tgt)); err != nil {
			t.Fatal(err)
		}
		for mv := 0; mv < 300; mv++ {
			n := NodeID(rng.Intn(g.NumNodes()))
			to := tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
			got := d.Propose(n, to)

			old := place[n]
			place[n] = to
			want := fullCost(t, g, place, tgt)
			if !costsBitEqual(got, want) {
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
		d.Propose(n, to)
		if i%3 == 0 {
			d.Commit()
			d.Snapshot(buf)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Propose/Commit/Snapshot allocate %v allocs/op, want 0", allocs)
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
	assertPanics(t, "Commit without Propose", func() { d.Commit() })
}
