package search

import (
	"math/rand"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
)

// Search invariants, checked over seeded families of inputs rather than
// single fixtures: every candidate a searcher returns is legal under the
// fm checker, and no dominated point ever appears on a Pareto frontier.

func TestExhaustive2DEveryCandidateLegal(t *testing.T) {
	for _, n := range []int{4, 7, 9} {
		g, dom := smallRec(t, n)
		tgt := fm.DefaultTarget(4, 1)
		tgt.MemWordsPerNode = 1 << 20
		cands := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 10, Workers: 4})
		if len(cands) < 2 {
			t.Fatalf("n=%d: only %d candidates", n, len(cands))
		}
		for _, c := range cands {
			if err := fm.Check(g, c.Sched, tgt); err != nil {
				t.Fatalf("n=%d: candidate %q illegal: %v", n, c.Name, err)
			}
		}
	}
}

func TestAnnealResultLegalAcrossSeedsAndChains(t *testing.T) {
	tgt := fm.DefaultTarget(4, 2)
	for seed := int64(0); seed < 6; seed++ {
		for _, chains := range []int{1, 3} {
			g := randomGraph(seed, 40)
			sched, cost := mustAnneal(t, g, tgt, AnnealOptions{
				Iters: 150, Seed: seed, Chains: chains, ExchangeEvery: 50, Workers: 4,
			})
			if err := fm.Check(g, sched, tgt); err != nil {
				t.Fatalf("seed=%d chains=%d: annealed schedule illegal: %v", seed, chains, err)
			}
			// The reported cost must be the schedule's true cost, not a
			// stale or cache-corrupted value.
			if got := mustEval(g, sched, tgt); got != cost {
				t.Fatalf("seed=%d chains=%d: reported cost %v, re-evaluated %v", seed, chains, got, cost)
			}
		}
	}
}

func TestEvalCacheDeltaAgreement(t *testing.T) {
	// The delta evaluator's cache contract: costs it publishes (Put) and
	// costs the cache computes itself (Eval → full Evaluate) must be
	// bit-identical for the same (graph, schedule, target) fingerprints,
	// so a cache populated by either source serves the other and no
	// caller can tell which path priced an entry. Checked over a random
	// accepted-move walk: every committed mapping is priced three ways —
	// delta, cache miss (full eval), cache hit — and all must agree.
	tgt := fm.DefaultTarget(4, 2)
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(seed, 50)
		gfp := g.Fingerprint()
		d, err := fm.NewDeltaEvaluator(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		init := fm.ListSchedule(g, tgt)
		place := make([]geom.Point, g.NumNodes())
		for n := range place {
			place[n] = init[n].Place
		}
		if _, err := d.Reset(ASAP(g, place, tgt)); err != nil {
			t.Fatal(err)
		}
		evalSide := NewEvalCache() // populated by full evaluation
		putSide := NewEvalCache()  // populated by delta-derived Put
		rng := rand.New(rand.NewSource(seed))
		accepted := 0
		var sched fm.Schedule
		for move := 0; move < 120; move++ {
			n := rng.Intn(g.NumNodes())
			to := tgt.Grid.At(rng.Intn(tgt.Grid.Nodes()))
			cand := d.Propose(fm.NodeID(n), to)
			if rng.Intn(2) == 0 {
				continue // rejected proposals publish nothing
			}
			d.Commit()
			accepted++
			sched = d.Snapshot(sched)
			sfp := sched.Fingerprint()

			// Miss path: the cache prices the mapping through the full
			// evaluator and must agree with the delta cost bit for bit.
			if got := evalSide.Eval(g, gfp, sched, tgt); got != cand {
				t.Fatalf("seed=%d move=%d: cache full eval %+v != delta cost %+v", seed, move, got, cand)
			}
			// Hit path: the probe must find that entry and agree.
			if got, ok := evalSide.Lookup(gfp, sfp, tgt); !ok || got != cand {
				t.Fatalf("seed=%d move=%d: lookup after eval: hit=%v cost=%+v", seed, move, ok, got)
			}
			// Put path: publishing the delta cost must be
			// indistinguishable from having evaluated — a later Eval of
			// the same mapping hits and returns the same bits the full
			// evaluator would.
			putSide.Put(gfp, sfp, tgt, cand)
			hitsBefore := putSide.SnapshotStats().Hits
			if got := putSide.Eval(g, gfp, sched, tgt); got != cand {
				t.Fatalf("seed=%d move=%d: Eval after Put returned %+v, want %+v", seed, move, got, cand)
			}
			if putSide.SnapshotStats().Hits != hitsBefore+1 {
				t.Fatalf("seed=%d move=%d: Eval after Put re-evaluated instead of hitting", seed, move)
			}
		}
		if accepted == 0 {
			t.Fatalf("seed=%d: walk accepted no moves", seed)
		}
	}
}

// dominates reports whether d strictly dominates c in (time, energy).
func dominates(d, c Candidate) bool {
	return d.Cost.Cycles <= c.Cost.Cycles && d.Cost.EnergyFJ <= c.Cost.EnergyFJ &&
		(d.Cost.Cycles < c.Cost.Cycles || d.Cost.EnergyFJ < c.Cost.EnergyFJ)
}

func checkFrontier(t *testing.T, tag string, cands, front []Candidate) {
	t.Helper()
	// No point on the front is dominated by any candidate at all.
	for _, f := range front {
		for _, c := range cands {
			if dominates(c, f) {
				t.Fatalf("%s: frontier point %v dominated by %v", tag, f.Cost, c.Cost)
			}
		}
	}
	// Every candidate off the front is dominated by someone (completeness:
	// the front is exactly the non-dominated set, counted by multiset).
	onFront := make(map[fm.Cost]int)
	for _, f := range front {
		onFront[f.Cost]++
	}
	for _, c := range cands {
		if onFront[c.Cost] > 0 {
			onFront[c.Cost]--
			continue
		}
		dom := false
		for _, d := range cands {
			if dominates(d, c) {
				dom = true
				break
			}
		}
		if !dom {
			t.Fatalf("%s: non-dominated candidate %v missing from frontier", tag, c.Cost)
		}
	}
}

func TestParetoNoDominatedPointRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{Cost: fm.Cost{
				Cycles:   int64(rng.Intn(12)), // small ranges force ties and duplicates
				EnergyFJ: float64(rng.Intn(12)),
			}}
		}
		checkFrontier(t, "random", cands, Pareto(cands))
	}
}

func TestParetoNoDominatedPointFromSearch(t *testing.T) {
	g, dom := smallRec(t, 8)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	cands := Exhaustive2D(g, dom, tgt, Affine2DOptions{P: 4, MaxTau: 12, Workers: 4})
	front := Pareto(cands)
	if len(front) == 0 {
		t.Fatal("empty frontier from a non-empty candidate set")
	}
	checkFrontier(t, "search", cands, front)
}
