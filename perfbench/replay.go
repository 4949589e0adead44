package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"time"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/store"
)

// replayMin is how long each replayed function runs after its warm pass.
const replayMin = 40 * time.Millisecond

// timeEach calls f(i) for i cycling over [0, n) — once each as a warm
// pass, then until at least replayMin has passed and every input ran
// again — and returns the mean time per call.
func timeEach(n int, f func(i int)) time.Duration {
	for i := range n {
		f(i)
	}
	calls := 0
	start := time.Now()
	for calls < n || time.Since(start) < replayMin {
		f(calls % n)
		calls++
	}
	return time.Since(start) / time.Duration(calls)
}

// sink keeps replayed results alive so no call is optimized away.
var sink any

// replay times the public function behind each layer, single-threaded,
// on the workload's own distinct inputs (the R metrics).
func replay(in *inputs, tmp string) (map[string]metric, error) {
	m := make(map[string]metric)
	putUS := func(name string, d time.Duration) { m[name] = metric{us(d), "us"} }

	// Up to 256 distinct eval bodies and mappings the run sent.
	seen := make(map[*request]bool)
	var bodies [][]byte
	var maps []int
	for _, seq := range [][]*request{in.warm, in.closed, in.open} {
		for _, r := range seq {
			if r.path != pathEval || seen[r] || len(bodies) == 256 {
				continue
			}
			seen[r] = true
			bodies = append(bodies, r.body)
			maps = append(maps, r.maps...)
		}
	}
	maps = maps[:min(len(maps), 256)]
	scheds := make([]fm.Schedule, len(maps))
	for i, mi := range maps {
		mp := in.maps[mi]
		s, err := buildSchedule(&in.recs[mp.rec], mp.spec, in.tgt)
		if err != nil {
			return nil, err
		}
		scheds[i] = s
	}
	rec := func(i int) *recurrence { return &in.recs[in.maps[maps[i]].rec] }

	putUS("serve.json_decode_us", timeEach(len(bodies), func(i int) {
		var req serve.EvalRequest
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req)
		sink = req
	}))
	putUS("cluster.routekey_us", timeEach(len(bodies), func(i int) {
		sink, _ = serve.RouteKey(bodies[i])
	}))
	putUS("fm.materialize_us", timeEach(len(in.recs), func(i int) {
		s := in.recs[i].spec
		sink, _, _ = fm.Recurrence{Name: s.Name, Dims: s.Dims, Deps: s.Deps, Op: opClasses[s.Op], Bits: 32}.Materialize()
	}))
	putUS("fm.fingerprint_us", timeEach(len(maps), func(i int) {
		sink = rec(i).g.Fingerprint() ^ scheds[i].Fingerprint()
	}))
	costs := make([]fm.Cost, len(maps))
	putUS("fm.evaluate_us", timeEach(len(maps), func(i int) {
		costs[i], _ = fm.Evaluate(rec(i).g, scheds[i], in.tgt, fm.EvalOptions{SkipCheck: true})
	}))
	cache := search.NewBoundedEvalCache(1 << 16)
	putUS("search.evalcache_hit_us", timeEach(len(maps), func(i int) {
		sink = cache.Eval(rec(i).g, rec(i).gfp, scheds[i], in.tgt)
	}))

	rng := rand.New(rand.NewSource(1))
	deltas := make([]*fm.DeltaEvaluator, min(len(in.recs), 16))
	for i := range deltas {
		r := &in.recs[i]
		d, err := fm.NewDeltaEvaluator(r.g, in.tgt)
		if err != nil {
			return nil, err
		}
		if _, err := d.Reset(fm.ListSchedule(r.g, in.tgt)); err != nil {
			return nil, err
		}
		deltas[i] = d
	}
	putUS("fm.delta_propose_us", timeEach(len(deltas)*64, func(i int) {
		d := deltas[i%len(deltas)]
		n := in.recs[i%len(deltas)].g.NumNodes()
		sink = d.Propose(fm.NodeID(rng.Intn(n)), geom.Pt(rng.Intn(gridWidth), 0))
	}))

	anneal := timeEach(len(in.searches), func(i int) {
		s := in.searches[i]
		sink, _, _ = search.AnnealResumable(in.searchRecs[i].g, in.tgt, search.AnnealOptions{
			Iters: s.Iters, Chains: s.Chains, Seed: s.Seed, Objective: search.MinTime, Workers: 1,
		})
	})
	m["search.anneal_ms"] = metric{ms(anneal), "ms"}

	// A fresh fsyncing store: every first put appends, every repeat is a
	// duplicate the index refuses.
	dir, err := os.MkdirTemp(tmp, "replay-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(store.OS{}, dir, store.Options{})
	if err != nil {
		return nil, err
	}
	puts := min(len(maps), 64)
	start := time.Now()
	for i := range puts {
		if _, err := st.Put(rec(i).gfp, in.tgt, scheds[i], costs[i]); err != nil {
			st.Close()
			return nil, err
		}
	}
	m["store.put_us"] = metric{us(time.Since(start) / time.Duration(puts)), "us"}
	putUS("store.put_dup_us", timeEach(puts, func(i int) {
		sink, _ = st.Put(rec(i).gfp, in.tgt, scheds[i], costs[i])
	}))
	if err := st.Close(); err != nil {
		return nil, err
	}

	tracer := newTracer(untracedRing)
	ctx := context.Background()
	putUS("tracing.request_us", timeEach(1, func(int) {
		_, rt := tracer.StartRequest(ctx, pathEval, "decode")
		rt.Stage("admission")
		rt.Annotate("batch_jobs", "1")
		rt.Stage("queue_wait")
		rt.Stage("batch")
		rt.Stage("respond")
		rt.Finish()
	}))
	return m, nil
}
