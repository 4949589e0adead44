//go:build !deltacheck

// The zero-alloc gate for the anneal hot path. Excluded from the
// deltacheck build: the differential engine replays every move through
// the full evaluator and allocates freely by design.

package search

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
)

// newStepChain builds one annealing chain exactly the way AnnealResumable
// does, with the delta engine attached, so ch.step here measures the same
// code the real search runs.
func newStepChain(tb testing.TB, g *fm.Graph, tgt fm.Target, obj Objective) *chain {
	tb.Helper()
	init := fm.ListSchedule(g, tgt)
	place := make([]geom.Point, g.NumNodes())
	for n := range place {
		place[n] = init[n].Place
	}
	src := newChainSource(1, 0, 0)
	ch := &chain{
		rng:   rand.New(src),
		src:   src,
		place: place,
		cool:  math.Pow(1e-3, 1/float64(1<<20)),
	}
	eng, err := newMover(g, tgt)
	if err != nil {
		tb.Fatal(err)
	}
	ch.eng = eng
	ch.curBuf = make(fm.Schedule, g.NumNodes())
	ch.cur = ASAP(g, place, tgt)
	cost, err := eng.Reset(ch.cur)
	if err != nil {
		tb.Fatal(err)
	}
	ch.curCost = cost
	ch.best, ch.bestCost = ch.cur, cost
	// AnnealResumable's starting temperature, so the benchmark's accept
	// ratio, which sets how often a time proposal is completed, is a
	// search's.
	ch.temp = initTemp * math.Max(obj.Value(cost), 1)
	return ch
}

// TestAnnealMoveZeroAlloc is the regression gate behind the delta
// evaluator's headline property: the steady-state move loop — propose,
// price, Metropolis-decide, commit — performs zero heap allocations,
// under every objective (a time objective takes the makespan-only
// proposal and completes the cost at Commit; the others price it up
// front). The best cost is pinned unbeatable so the deliberate
// new-global-best allocation (a fresh snapshot that must outlive
// cross-chain adoption, plus a cache publish) stays cold; that branch
// fires a handful of times per run and is not part of the steady state.
func TestAnnealMoveZeroAlloc(t *testing.T) {
	g := randomGraph(31, 60)
	tgt := fm.DefaultTarget(4, 1)
	gfp := g.Fingerprint()
	for _, obj := range []Objective{MinTime, MinEnergy, MinEDP, MinFootprint} {
		ch := newStepChain(t, g, tgt, obj)
		ch.bestCost = fm.Cost{} // objective 0: no candidate can beat it

		for i := 0; i < 100; i++ { // warm up accept and reject paths
			ch.step(g, gfp, tgt, obj, nil)
		}
		accepts := ch.accepts
		if avg := testing.AllocsPerRun(200, func() {
			ch.step(g, gfp, tgt, obj, nil)
		}); avg != 0 {
			t.Fatalf("%v: anneal move allocates %v allocs/op, want 0", obj, avg)
		}
		if ch.accepts == accepts || ch.rejects == 0 {
			t.Fatalf("%v: the measured moves took only one branch (%d accepts, %d rejects in all)", obj, ch.accepts, ch.rejects)
		}
	}
}

// BenchmarkAnnealMove measures delta-priced moves; run with -benchmem to
// see the 0 B/op the test above asserts. MinTime prices each proposal's
// makespan alone and completes the cost of accepted ones; MinEDP prices
// every proposal in full. BenchmarkAnnealMoveFull is the pre-delta path
// (ASAP rebuild + full Evaluate per move) on the same graph and target,
// so the quotient of MinEDP and Full is the hot-path speedup quoted in
// the README.
func BenchmarkAnnealMove(b *testing.B) {
	g := randomGraph(31, 120)
	tgt := fm.DefaultTarget(4, 1)
	gfp := g.Fingerprint()
	for _, obj := range []Objective{MinEDP, MinTime} {
		b.Run(obj.String(), func(b *testing.B) {
			ch := newStepChain(b, g, tgt, obj)
			ch.bestCost = fm.Cost{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.step(g, gfp, tgt, obj, nil)
			}
		})
	}
}

func BenchmarkAnnealMoveFull(b *testing.B) {
	g := randomGraph(31, 120)
	tgt := fm.DefaultTarget(4, 1)
	init := fm.ListSchedule(g, tgt)
	place := make([]geom.Point, g.NumNodes())
	for n := range place {
		place[n] = init[n].Place
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := rng.Intn(g.NumNodes())
		old := place[n]
		place[n] = tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
		sched := ASAP(g, place, tgt)
		_ = mustEval(g, sched, tgt)
		place[n] = old
	}
}
