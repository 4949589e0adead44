package search

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fm"
	"repro/internal/obs"
)

func TestProgressFinalRecordMatchesReturnedCost(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20

	var records []Progress
	opts := AnnealOptions{
		Iters: 400, Seed: 9, Chains: 3, ExchangeEvery: 100, Workers: 2,
		OnProgress: func(p Progress) { records = append(records, p) },
	}
	_, cost := mustAnneal(t, g, tgt, opts)

	if len(records) < 2 {
		t.Fatalf("only %d progress records for a 4-segment run", len(records))
	}
	for i := 1; i < len(records); i++ {
		if records[i].Done < records[i-1].Done {
			t.Fatalf("progress went backwards: %d then %d", records[i-1].Done, records[i].Done)
		}
		if records[i-1].Final {
			t.Fatal("non-last record marked final")
		}
	}
	final := records[len(records)-1]
	if !final.Final {
		t.Fatal("last record not marked final")
	}
	if final.Done != opts.Iters || final.Total != opts.Iters {
		t.Fatalf("final record at %d/%d, want %d/%d", final.Done, final.Total, opts.Iters, opts.Iters)
	}
	// The acceptance bar: the stream's final best is the returned cost.
	if final.BestCycles != cost.Cycles || final.BestEnergyFJ != cost.EnergyFJ {
		t.Fatalf("final progress best (%d cycles, %g fJ) != returned cost (%d cycles, %g fJ)",
			final.BestCycles, final.BestEnergyFJ, cost.Cycles, cost.EnergyFJ)
	}
	if got, want := final.BestObjective, opts.Objective.Value(cost); got != want {
		t.Fatalf("final best objective %g != objective of returned cost %g", got, want)
	}
	if final.Candidates <= int64(opts.Iters) {
		t.Fatalf("candidates %d for %d iters x %d chains", final.Candidates, opts.Iters, opts.Chains)
	}
	// Every chain evaluates one initial placement plus one per iteration.
	if want := int64(opts.Chains) * int64(opts.Iters+1); final.Candidates != want {
		t.Fatalf("candidates %d, want chains*(iters+1) = %d", final.Candidates, want)
	}
	if final.Accepted+final.Rejected != int64(opts.Chains)*int64(opts.Iters) {
		t.Fatalf("accepted %d + rejected %d != chains*iters %d",
			final.Accepted, final.Rejected, int64(opts.Chains)*int64(opts.Iters))
	}
	if len(final.Chains) != opts.Chains {
		t.Fatalf("final record has %d chain entries, want %d", len(final.Chains), opts.Chains)
	}
	for _, ch := range final.Chains {
		if ch.Temp <= 0 {
			t.Fatalf("chain %d temperature %g", ch.Chain, ch.Temp)
		}
		if ch.BestObjective < final.BestObjective {
			t.Fatalf("chain %d best %g beats global best %g", ch.Chain, ch.BestObjective, final.BestObjective)
		}
	}
}

func TestProgressObserversDoNotChangeResults(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	base := AnnealOptions{Iters: 300, Seed: 17, Chains: 3, ExchangeEvery: 75, Workers: 2}

	plainSched, plainCost := mustAnneal(t, g, tgt, base)

	observed := base
	observed.OnProgress = func(Progress) {}
	observed.Obs = obs.New()
	obsSched, obsCost := mustAnneal(t, g, tgt, observed)

	if !reflect.DeepEqual(plainSched, obsSched) || plainCost != obsCost {
		t.Fatal("progress observation changed the search result")
	}

	// Single chain too: observation forces barriers, which must still
	// reproduce the uninterrupted single-chain trajectory.
	single := AnnealOptions{Iters: 300, Seed: 17, ExchangeEvery: 75}
	s1, c1 := mustAnneal(t, g, tgt, single)
	single.OnProgress = func(Progress) {}
	s2, c2 := mustAnneal(t, g, tgt, single)
	if !reflect.DeepEqual(s1, s2) || c1 != c2 {
		t.Fatal("observing a single-chain run changed its result")
	}
}

func TestAnnealObsGauges(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	r := obs.New()
	cache := NewEvalCache()
	opts := AnnealOptions{
		Iters: 200, Seed: 5, Chains: 2, ExchangeEvery: 50,
		Obs: r, Cache: cache,
	}
	_, cost := mustAnneal(t, g, tgt, opts)
	snap := r.Snapshot()
	if got, want := snap.Gauges["search.anneal.best_objective"], opts.Objective.Value(cost); got != want {
		t.Fatalf("search.anneal.best_objective = %g, want %g", got, want)
	}
	if got := snap.Gauges["search.anneal.iters_done"]; got != float64(opts.Iters) {
		t.Fatalf("search.anneal.iters_done = %g, want %d", got, opts.Iters)
	}
	if snap.Gauges["search.anneal.candidates"] <= 0 {
		t.Fatal("search.anneal.candidates not published")
	}
	for _, name := range []string{"search.anneal.chain0.temp", "search.anneal.chain1.temp",
		"search.evalcache.hits", "search.evalcache.misses", "search.evalcache.entries"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %q missing from snapshot (have %v)", name, snap.Names())
		}
	}
	cs := cache.SnapshotStats()
	if got := snap.Gauges["search.evalcache.hits"]; got != float64(cs.Hits) {
		t.Fatalf("search.evalcache.hits = %g, cache says %d", got, cs.Hits)
	}
	if got := snap.Gauges["search.evalcache.misses"]; got != float64(cs.Misses) {
		t.Fatalf("search.evalcache.misses = %g, cache says %d", got, cs.Misses)
	}
}

func TestProgressWriterEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	var errs []error
	write := ProgressWriter(&buf, func(err error) { errs = append(errs, err) })
	write(Progress{Done: 100, Total: 400, Candidates: 300})
	write(Progress{Done: 400, Total: 400, Candidates: 1203, Final: true,
		Chains: []ChainProgress{{Chain: 0, Temp: 1.5}}})
	if len(errs) != 0 {
		t.Fatalf("writer reported errors: %v", errs)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var p Progress
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
	}
	var last Progress
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Final || last.Candidates != 1203 || len(last.Chains) != 1 {
		t.Fatalf("round-trip lost fields: %+v", last)
	}
}

func TestBoundedEvalCacheEvicts(t *testing.T) {
	g, _ := smallRec(t, 6)
	tgt := fm.DefaultTarget(4, 1)
	tgt.MemWordsPerNode = 1 << 20
	cache := NewBoundedEvalCache(evalCacheShards) // one entry per shard
	// Full evaluation per move (DisableDelta) is the path that churns the
	// cache hard enough to force evictions; the delta path touches it only
	// at init and on new bests.
	opts := AnnealOptions{Iters: 300, Seed: 23, Chains: 2, ExchangeEvery: 100, Cache: cache, DisableDelta: true}
	_, bounded := mustAnneal(t, g, tgt, opts)

	opts.Cache = NewEvalCache()
	_, unbounded := mustAnneal(t, g, tgt, opts)
	if bounded != unbounded {
		t.Fatalf("bounded cache changed the search result: %+v vs %+v", bounded, unbounded)
	}
	cs := cache.SnapshotStats()
	if cs.Evictions == 0 {
		t.Fatal("300x2 iterations through a 64-entry cache evicted nothing")
	}
	if got := cs.Entries; got > evalCacheShards {
		t.Fatalf("cache holds %d entries, cap %d", got, evalCacheShards)
	}
}
