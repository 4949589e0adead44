package search

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fm"
)

// The headline claim of the parallel searcher is "same answers, faster":
// for any Workers value the results are byte-identical to the serial
// path. These tests pin that claim across a grid of seeds and sizes and
// are meant to run under -race (CI does), where the fan-out/merge
// machinery is exercised for unsynchronized sharing as well.

// candidatesEqual reports whether two candidate lists are identical,
// including names, full schedules, and every cost field.
func candidatesEqual(a, b []Candidate) bool {
	return reflect.DeepEqual(a, b)
}

func TestExhaustive2DDeterministicAcrossWorkers(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		g, dom := smallRec(t, n)
		tgt := fm.DefaultTarget(4, 1)
		tgt.MemWordsPerNode = 1 << 20
		opts := Affine2DOptions{P: 4, MaxTau: 10}

		opts.Workers = 1
		serial := Exhaustive2D(g, dom, tgt, opts)
		if len(serial) < 2 {
			t.Fatalf("n=%d: only %d candidates", n, len(serial))
		}
		for _, workers := range []int{2, 4, 8} {
			opts.Workers = workers
			par := Exhaustive2D(g, dom, tgt, opts)
			if !candidatesEqual(serial, par) {
				t.Fatalf("n=%d: workers=1 and workers=%d disagree:\n  serial: %d cands, first %q %v\n  parallel: %d cands, first %q %v",
					n, workers, len(serial), serial[0].Name, serial[0].Cost,
					len(par), par[0].Name, par[0].Cost)
			}
			// The downstream artifacts must agree too.
			if !candidatesEqual(Pareto(serial), Pareto(par)) {
				t.Fatalf("n=%d workers=%d: Pareto fronts disagree", n, workers)
			}
			for _, obj := range []Objective{MinTime, MinEnergy, MinEDP, MinFootprint} {
				if !reflect.DeepEqual(mustBest(t, serial, obj), mustBest(t, par, obj)) {
					t.Fatalf("n=%d workers=%d: Best(%v) disagrees", n, workers, obj)
				}
			}
		}
	}
}

func TestExhaustive2DDeterministicWithCache(t *testing.T) {
	g, dom := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	bare := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 8, Workers: 1})
	cache := NewEvalCache()
	// Run the cached sweep twice: the second is served almost entirely
	// from the cache and must still be identical.
	for rep := 0; rep < 2; rep++ {
		cached := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 8, Workers: 4, Cache: cache})
		if !candidatesEqual(bare, cached) {
			t.Fatalf("rep %d: cached sweep diverged from uncached", rep)
		}
	}
	if cache.SnapshotStats().Hits == 0 {
		t.Error("second sweep produced no cache hits")
	}
}

func TestAnnealDeterministicAcrossWorkers(t *testing.T) {
	tgt := fm.DefaultTarget(4, 1)
	for _, seed := range []int64{1, 7, 42} {
		for _, size := range []int{30, 60} {
			g := randomGraph(seed, size)
			opts := AnnealOptions{Iters: 400, Seed: seed, Chains: 4, ExchangeEvery: 100}

			opts.Workers = 1
			serialSched, serialCost := mustAnneal(t, g, tgt, opts)
			for _, workers := range []int{2, 4, 8} {
				opts.Workers = workers
				sched, cost := mustAnneal(t, g, tgt, opts)
				if cost != serialCost {
					t.Fatalf("seed=%d size=%d: workers=1 cost %v, workers=%d cost %v",
						seed, size, serialCost, workers, cost)
				}
				if !reflect.DeepEqual(sched, serialSched) {
					t.Fatalf("seed=%d size=%d workers=%d: schedules differ at equal cost",
						seed, size, workers)
				}
			}
		}
	}
}

func TestAnnealDeltaMatrixBitIdentical(t *testing.T) {
	// The 4-way equivalence matrix: {Workers 1, 8} x {delta on, off} must
	// all produce byte-identical schedules and costs, under every
	// objective. Delta evaluation prices candidate moves incrementally but
	// bit-equal to the full evaluator (a time objective prices only the
	// makespan and completes the cost of accepted moves), so the
	// Metropolis decisions — and the whole trajectory — cannot depend on
	// the toggle; workers never change answers by the package's standing
	// guarantee. Any drift in the delta evaluator that escaped the
	// differential harness would surface here as a cost or schedule
	// mismatch. Besides random graphs, the matrix anneals the serving
	// shape: an edit-distance recurrence on a width-4 target.
	type graphCase struct {
		name string
		g    *fm.Graph
		tgt  fm.Target
		seed int64
	}
	var cases []graphCase
	for _, seed := range []int64{1, 7, 42} {
		for _, size := range []int{30, 60} {
			cases = append(cases, graphCase{fmt.Sprintf("random seed=%d size=%d", seed, size), randomGraph(seed, size), fm.DefaultTarget(4, 2), seed})
		}
	}
	editDist, _ := smallRec(t, 10)
	cases = append(cases, graphCase{"edit distance 10x10", editDist, fm.DefaultTarget(4, 1), 3})

	for _, gc := range cases {
		for _, obj := range []Objective{MinTime, MinEnergy, MinEDP, MinFootprint} {
			base := AnnealOptions{Iters: 400, Seed: gc.seed, Chains: 4, ExchangeEvery: 100, Objective: obj}

			type cell struct {
				workers int
				disable bool
			}
			cells := []cell{{1, false}, {8, false}, {1, true}, {8, true}}
			var refSched fm.Schedule
			var refCost fm.Cost
			for i, c := range cells {
				opts := base
				opts.Workers = c.workers
				opts.DisableDelta = c.disable
				sched, cost := mustAnneal(t, gc.g, gc.tgt, opts)
				if i == 0 {
					refSched, refCost = sched, cost
					continue
				}
				if cost != refCost {
					t.Fatalf("%s %v workers=%d delta=%v: cost %+v, want %+v",
						gc.name, obj, c.workers, !c.disable, cost, refCost)
				}
				if !reflect.DeepEqual(sched, refSched) {
					t.Fatalf("%s %v workers=%d delta=%v: schedules differ at equal cost",
						gc.name, obj, c.workers, !c.disable)
				}
			}
		}
	}
}

func TestAnnealDeltaCrossEngineResume(t *testing.T) {
	// Checkpoints store schedules and RNG draw counts, not evaluator
	// state, so a mid-run snapshot taken by one engine must restore into
	// the other with a bit-identical final answer: run delta-on to a
	// mid-run barrier, resume delta-off (and vice versa), compare against
	// the uninterrupted run.
	tgt := fm.DefaultTarget(4, 1)
	g := randomGraph(17, 40)
	base := AnnealOptions{Iters: 300, Seed: 17, Chains: 2, ExchangeEvery: 100, Workers: 1}
	wantSched, wantCost := mustAnneal(t, g, tgt, base)

	for _, firstDelta := range []bool{true, false} {
		dir := t.TempDir()
		cpPath := filepath.Join(dir, "anneal.ckpt")
		midPath := filepath.Join(dir, "mid.ckpt")
		opts := base
		opts.CheckpointPath = cpPath
		opts.DisableDelta = !firstDelta

		captured := false
		testBarrierHook = func(done int) {
			if !captured && done > 0 && done < opts.Iters {
				data, err := os.ReadFile(cpPath)
				if err != nil {
					t.Errorf("barrier hook: %v", err)
					return
				}
				if err := os.WriteFile(midPath, data, 0o644); err != nil {
					t.Errorf("barrier hook: %v", err)
					return
				}
				captured = true
			}
		}
		if _, _, err := AnnealResumable(g, tgt, opts); err != nil {
			testBarrierHook = nil
			t.Fatal(err)
		}
		testBarrierHook = nil
		if !captured {
			t.Fatal("no mid-run checkpoint captured")
		}

		opts.CheckpointPath = midPath
		opts.Resume = true
		opts.DisableDelta = firstDelta // resume on the other engine
		sched, cost, err := AnnealResumable(g, tgt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cost != wantCost || !reflect.DeepEqual(sched, wantSched) {
			t.Fatalf("cross-engine resume (checkpointed with delta=%v) diverged: %+v vs %+v",
				firstDelta, cost, wantCost)
		}
	}
}

func TestAnnealDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// The guarantee is "regardless of GOMAXPROCS", which also covers the
	// Workers=0 default (one worker per CPU): changing the CPU count must
	// not change answers.
	tgt := fm.DefaultTarget(4, 1)
	g := randomGraph(13, 40)
	opts := AnnealOptions{Iters: 300, Seed: 13, Chains: 3, ExchangeEvery: 75}
	_, ref := mustAnneal(t, g, tgt, opts)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		_, got := mustAnneal(t, g, tgt, opts)
		runtime.GOMAXPROCS(prev)
		if got != ref {
			t.Fatalf("GOMAXPROCS=%d changed the result: %v vs %v", procs, got, ref)
		}
	}
}

func TestAnnealSingleChainMatchesClassic(t *testing.T) {
	// Chains=1 must reproduce the pre-parallel annealer: same seed, same
	// trajectory, same best — the multi-chain machinery degenerates away.
	tgt := fm.DefaultTarget(3, 1)
	g := randomGraph(9, 30)
	s1, c1 := mustAnneal(t, g, tgt, AnnealOptions{Iters: 200, Seed: 11})
	s2, c2 := mustAnneal(t, g, tgt, AnnealOptions{Iters: 200, Seed: 11, Chains: 1, Workers: 8})
	if c1 != c2 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("single-chain results diverged: %v vs %v", c1, c2)
	}
}

func TestAnnealChainsShiftSeeds(t *testing.T) {
	// RNG hygiene: chain i draws from Seed+i, so a K-chain run's winner
	// is reproducible and chain 0 of any run equals the classic annealer
	// with the same seed. A 4-chain search can therefore never do worse
	// than the single-chain search under the same Seed.
	tgt := fm.DefaultTarget(4, 1)
	g := randomGraph(5, 50)
	_, single := mustAnneal(t, g, tgt, AnnealOptions{Iters: 300, Seed: 21})
	_, multi := mustAnneal(t, g, tgt, AnnealOptions{Iters: 300, Seed: 21, Chains: 4, ExchangeEvery: -1})
	if multi.Cycles > single.Cycles {
		t.Errorf("4 chains (%d cycles) worse than the chain-0 baseline (%d cycles)",
			multi.Cycles, single.Cycles)
	}
}
