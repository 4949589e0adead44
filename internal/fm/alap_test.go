package fm

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

func randomPlacedGraph(seed int64, ops int, tgt Target) (*Graph, []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("r")
	ids := []NodeID{b.Input(32), b.Input(32)}
	for i := 0; i < ops; i++ {
		ids = append(ids, b.Op(tech.OpAdd, 32, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]))
	}
	b.MarkOutput(ids[len(ids)-1])
	g := b.Build()
	place := make([]geom.Point, g.NumNodes())
	for i := range place {
		place[i] = tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
	}
	return g, place
}

func TestALAPLegalAtASAPDeadline(t *testing.T) {
	tgt := DefaultTarget(3, 3)
	tgt.MemWordsPerNode = 1 << 20
	for seed := int64(0); seed < 12; seed++ {
		g, place := randomPlacedGraph(seed, 40, tgt)
		asap := ASAPSchedule(g, place, tgt)
		var deadline int64
		for n := 0; n < g.NumNodes(); n++ {
			if f := finishTime(g, asap, tgt, NodeID(n)); f > deadline {
				deadline = f
			}
		}
		alap, err := ALAPScheduleChecked(g, place, tgt, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(g, alap, tgt); err != nil {
			t.Fatalf("seed %d: ALAP illegal: %v", seed, err)
		}
		// ALAP never starts before ASAP.
		for n := range asap {
			if alap[n].Time < asap[n].Time {
				t.Fatalf("seed %d: node %d ALAP %d < ASAP %d", seed, n, alap[n].Time, asap[n].Time)
			}
			if alap[n].Place != place[n] {
				t.Fatalf("seed %d: ALAP moved node %d", seed, n)
			}
		}
	}
}

func TestALAPRespectsDeadline(t *testing.T) {
	tgt := DefaultTarget(2, 2)
	g, place := randomPlacedGraph(3, 20, tgt)
	const deadline = 10_000
	alap, err := ALAPScheduleChecked(g, place, tgt, deadline)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.NumNodes(); n++ {
		if f := finishTime(g, alap, tgt, NodeID(n)); f > deadline {
			t.Fatalf("node %d finishes at %d, past deadline %d", n, f, deadline)
		}
	}
	// A generous deadline pushes everything late: the sink sits at it.
	sink := g.Outputs()[0]
	if f := finishTime(g, alap, tgt, sink); f != deadline {
		t.Errorf("sink finishes at %d, want exactly the deadline %d", f, deadline)
	}
}

func TestALAPInfeasibleDeadlineErrors(t *testing.T) {
	tgt := DefaultTarget(2, 2)
	g, place := randomPlacedGraph(5, 30, tgt)
	if _, err := ALAPScheduleChecked(g, place, tgt, 1); err == nil {
		t.Error("tight deadline accepted")
	}
	if _, err := ALAPScheduleChecked(g, nil, tgt, 100); err == nil {
		t.Error("bad placement accepted")
	}
}

func TestSlack(t *testing.T) {
	// A diamond whose short arm crosses the grid: communication makes the
	// REMOTE arm critical, and the longer local arm gains slack — the
	// kind of inversion only a communication-aware model sees.
	b := NewBuilder("diamond")
	src := b.Op(tech.OpAdd, 32)
	long1 := b.Op(tech.OpAdd, 32, src)
	long2 := b.Op(tech.OpAdd, 32, long1)
	remote := b.Op(tech.OpAdd, 32, src)
	sink := b.Op(tech.OpAdd, 32, long2, remote)
	b.MarkOutput(sink)
	g := b.Build()
	tgt := DefaultTarget(2, 2)
	place := make([]geom.Point, g.NumNodes())
	for i := range place {
		place[i] = geom.Pt(0, 0)
	}
	place[remote] = geom.Pt(1, 0) // 9 transit cycles each way
	slack, err := Slack(g, place, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if slack[src] != 0 || slack[remote] != 0 || slack[sink] != 0 {
		t.Errorf("src -> remote -> sink should be critical: %v", slack)
	}
	if slack[long1] <= 0 || slack[long2] <= 0 {
		t.Errorf("local arm should have slack: %v", slack)
	}
	for n, s := range slack {
		if s < 0 {
			t.Errorf("node %d has negative slack %d", n, s)
		}
	}
}

func TestSlackNonNegativeRandom(t *testing.T) {
	tgt := DefaultTarget(3, 3)
	for seed := int64(20); seed < 28; seed++ {
		g, place := randomPlacedGraph(seed, 35, tgt)
		slack, err := Slack(g, place, tgt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for n, s := range slack {
			if s < 0 {
				t.Fatalf("seed %d: node %d slack %d", seed, n, s)
			}
		}
	}
}
