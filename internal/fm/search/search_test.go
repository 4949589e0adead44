package search

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/tech"
)

func smallRec(t *testing.T, n int) (*fm.Graph, *fm.Domain) {
	t.Helper()
	g, dom, err := fm.Recurrence{
		Name: "dp",
		Dims: []int{n, n},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return g, dom
}

// mustAnneal is AnnealResumable for options that cannot fail: no
// checkpoint, no resume, no cancellable context.
func mustAnneal(t *testing.T, g *fm.Graph, tgt fm.Target, opts AnnealOptions) (fm.Schedule, fm.Cost) {
	t.Helper()
	sched, cost, err := AnnealResumable(g, tgt, opts)
	if err != nil {
		t.Fatalf("anneal: %v", err)
	}
	return sched, cost
}

// mustBest is BestChecked for a candidate set known to be non-empty.
func mustBest(t *testing.T, cands []Candidate, obj Objective) Candidate {
	t.Helper()
	c, ok := BestChecked(cands, obj)
	if !ok {
		t.Fatalf("no candidates to elect a best by %v from", obj)
	}
	return c
}

func randomGraph(seed int64, ops int) *fm.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := fm.NewBuilder("rand")
	ids := []fm.NodeID{b.Input(32), b.Input(32)}
	for i := 0; i < ops; i++ {
		d1 := ids[rng.Intn(len(ids))]
		d2 := ids[rng.Intn(len(ids))]
		ids = append(ids, b.Op(tech.OpAdd, 32, d1, d2))
	}
	b.MarkOutput(ids[len(ids)-1])
	return b.Build()
}

func TestASAPLegal(t *testing.T) {
	tgt := fm.DefaultTarget(4, 4)
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed, 40)
		rng := rand.New(rand.NewSource(seed + 100))
		place := make([]geom.Point, g.NumNodes())
		for i := range place {
			place[i] = tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
		}
		sched := ASAP(g, place, tgt)
		if err := fm.Check(g, sched, tgt); err != nil {
			t.Fatalf("seed %d: ASAP schedule illegal: %v", seed, err)
		}
		// ASAP preserves the requested placement.
		for n := range place {
			if sched[n].Place != place[n] {
				t.Fatalf("seed %d: ASAP moved node %d", seed, n)
			}
		}
	}
}

func TestASAPPanicsOnLengthMismatch(t *testing.T) {
	g := randomGraph(1, 5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ASAP(g, nil, fm.DefaultTarget(2, 2))
}

func TestAnnealImprovesOrMatchesDefault(t *testing.T) {
	tgt := fm.DefaultTarget(4, 1)
	g := randomGraph(3, 60)
	def, err := fm.Evaluate(g, fm.ListSchedule(g, tgt), tgt, fm.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, cost := mustAnneal(t, g, tgt, AnnealOptions{Iters: 300, Seed: 42})
	if err := fm.Check(g, sched, tgt); err != nil {
		t.Fatalf("annealed schedule illegal: %v", err)
	}
	if cost.Cycles > def.Cycles {
		t.Errorf("anneal (%d cycles) worse than its own starting point (%d)", cost.Cycles, def.Cycles)
	}
}

func TestAnnealEnergyObjectivePrefersLocality(t *testing.T) {
	// Minimizing energy should drive wire energy toward zero (everything
	// co-located), even if that serializes execution.
	tgt := fm.DefaultTarget(4, 1)
	g := randomGraph(5, 40)
	_, cost := mustAnneal(t, g, tgt, AnnealOptions{Iters: 1500, Seed: 7, Objective: MinEnergy})
	if cost.WireEnergy != 0 {
		t.Errorf("energy-optimal mapping still moves data: wire = %g fJ", cost.WireEnergy)
	}
}

func TestAnnealDeterministic(t *testing.T) {
	tgt := fm.DefaultTarget(3, 1)
	g := randomGraph(9, 30)
	_, c1 := mustAnneal(t, g, tgt, AnnealOptions{Iters: 200, Seed: 11})
	_, c2 := mustAnneal(t, g, tgt, AnnealOptions{Iters: 200, Seed: 11})
	if c1.Cycles != c2.Cycles || c1.EnergyFJ != c2.EnergyFJ {
		t.Errorf("same seed diverged: %v vs %v", c1, c2)
	}
}

func TestExhaustive2DFindsParallelMapping(t *testing.T) {
	g, dom := smallRec(t, 8)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	cands := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 12})
	if len(cands) < 2 {
		t.Fatalf("only %d candidates", len(cands))
	}
	// Every candidate must be legal (Check already ran; re-verify a few).
	for _, c := range cands[:min(3, len(cands))] {
		if err := fm.Check(g, c.Sched, tgt); err != nil {
			t.Fatalf("candidate %q illegal: %v", c.Name, err)
		}
	}
	best := mustBest(t, cands, MinTime)
	var serial Candidate
	for _, c := range cands {
		if c.Name == "serial" {
			serial = c
		}
	}
	if serial.Sched == nil {
		t.Fatal("serial candidate missing")
	}
	if best.Cost.Cycles >= serial.Cost.Cycles {
		t.Errorf("search failed to beat serial: best %d vs serial %d cycles", best.Cost.Cycles, serial.Cost.Cycles)
	}
	// Energy objective should pick a zero-wire mapping.
	bestE := mustBest(t, cands, MinEnergy)
	if bestE.Cost.WireEnergy != 0 {
		t.Errorf("energy-best candidate moves data: %v", bestE.Cost)
	}
	// Results are sorted by time.
	for i := 1; i < len(cands); i++ {
		if cands[i].Cost.Cycles < cands[i-1].Cost.Cycles {
			t.Fatal("candidates not sorted by time")
		}
	}
}

// TestExhaustive2DContextCut: a dead context skips every tuple — the
// sweep returns just the always-included serial candidate instead of
// panicking or blocking — and both the pooled and inline dispatch paths
// honor the cut. A live context changes nothing.
func TestExhaustive2DContextCut(t *testing.T) {
	g, dom := smallRec(t, 8)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} { // 1 = inline path, 4 = pool path
		cands := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 12, Workers: workers, Context: dead})
		if len(cands) != 1 || cands[0].Name != "serial" {
			t.Fatalf("workers=%d: dead-context sweep returned %d candidates, want only serial", workers, len(cands))
		}
	}

	full := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 12})
	live := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 12, Context: context.Background()})
	if len(live) != len(full) {
		t.Fatalf("live context changed the sweep: %d vs %d candidates", len(live), len(full))
	}
	for i := range full {
		if live[i].Name != full[i].Name || live[i].Cost != full[i].Cost {
			t.Fatalf("candidate %d differs under a live context: %+v vs %+v", i, live[i], full[i])
		}
	}
}

func TestParetoFront(t *testing.T) {
	mk := func(cycles int64, energy float64) Candidate {
		return Candidate{Cost: fm.Cost{Cycles: cycles, EnergyFJ: energy}}
	}
	cands := []Candidate{
		mk(10, 100), // on front
		mk(20, 50),  // on front
		mk(20, 120), // dominated by (10,100) on energy? no: 20>10 cycles and 120>100 -> dominated
		mk(5, 300),  // on front
		mk(30, 50),  // dominated by (20,50)
	}
	front := Pareto(cands)
	if len(front) != 3 {
		t.Fatalf("front size = %d: %+v", len(front), front)
	}
	if front[0].Cost.Cycles != 5 || front[1].Cost.Cycles != 10 || front[2].Cost.Cycles != 20 {
		t.Errorf("front order wrong: %+v", front)
	}
}

func TestParetoDuplicatesSurvive(t *testing.T) {
	mk := func(cycles int64, energy float64) Candidate {
		return Candidate{Cost: fm.Cost{Cycles: cycles, EnergyFJ: energy}}
	}
	front := Pareto([]Candidate{mk(10, 10), mk(10, 10)})
	if len(front) != 2 {
		t.Errorf("equal candidates should not dominate each other: %d", len(front))
	}
}

func TestObjectiveValues(t *testing.T) {
	c := fm.Cost{Cycles: 10, EnergyFJ: 5, PeakWordsPerNode: 3}
	if MinTime.Value(c) != 10 || MinEnergy.Value(c) != 5 || MinEDP.Value(c) != 50 {
		t.Error("objective values wrong")
	}
	if MinFootprint.Value(c) <= MinFootprint.Value(fm.Cost{Cycles: 10, EnergyFJ: 5, PeakWordsPerNode: 2}) {
		t.Error("footprint ordering wrong")
	}
	for _, o := range []Objective{MinTime, MinEnergy, MinEDP, MinFootprint} {
		if o.String() == "" {
			t.Error("empty objective name")
		}
	}
	if Objective(9).String() != "Objective(9)" {
		t.Error("unknown objective string")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
