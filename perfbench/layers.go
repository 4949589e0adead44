package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
)

// counters is a fleet's obs state at one instant: every shard's
// registry, summed, and the router's.
type counters struct {
	shard  map[string]float64
	router map[string]int64
	fs     fsTotals
}

// readCounters fetches every shard's GET /v1/metrics, which publishes the
// eval cache's gauges before answering, and reads the router's registry.
func readCounters(f *fleet, gen *generator) (counters, error) {
	c := counters{shard: make(map[string]float64), fs: f.fs.totals()}
	for _, m := range f.shards {
		resp, err := gen.client.Get(m.url + "/v1/metrics")
		if err != nil {
			return c, err
		}
		var snap obs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return c, fmt.Errorf("decode metrics: %w", err)
		}
		for k, v := range snap.Counters {
			c.shard[k] += float64(v)
		}
		for k, v := range snap.Gauges {
			c.shard[k] += v
		}
	}
	if f.rreg != nil {
		c.router = f.rreg.Snapshot().Counters
	}
	return c, nil
}

// delta is the growth of every counter between two readings.
func (c counters) delta(prev counters) counters {
	d := counters{shard: make(map[string]float64), router: make(map[string]int64), fs: fsTotals{
		fsyncs: c.fs.fsyncs - prev.fs.fsyncs, fsyncNS: c.fs.fsyncNS - prev.fs.fsyncNS, writeBytes: c.fs.writeBytes - prev.fs.writeBytes,
	}}
	for k, v := range c.shard {
		d.shard[k] = v - prev.shard[k]
	}
	for k, v := range c.router {
		d.router[k] = v - prev.router[k]
	}
	return d
}

// traced is the per-layer run. An untraced pass gives the baseline for
// the tracing overhead and the Go runtime figures; a pass over a fully
// instrumented fleet follows, then the layer replay.
func (b *bench) traced() (*report, error) {
	in, err := b.inputs()
	if err != nil {
		return nil, err
	}
	o := newOracle(in)
	var t tally
	base, err := b.drive(in, o, &t, nil, 1)
	if err != nil {
		return nil, err
	}
	spans := newSpanLog()
	p, err := b.drive(in, o, &t, spans, 1)
	if err != nil {
		return nil, err
	}

	a := newAttribution(p, spans.snapshot())
	m := a.metrics()
	_, baseCPU := base.closed.windowRates()
	_, tracedCPU := p.closed.windowRates()
	m["bench.trace_overhead_ratio"] = metric{ratio(median(tracedCPU), median(baseCPU)) - 1, "ratio"}
	done := float64(base.closed.completed())
	m["go.gc_cycles_per_kreq"] = metric{ratio(float64(base.closed.gc.cycles)*1000, done), "count"}
	m["go.gc_pause_ms_per_kreq"] = metric{ratio(float64(base.closed.gc.pauseNS)/1e6*1000, done), "ms"}
	m["gen.lag_p99_ms"] = metric{percentile(p.open.open.lags, 99), "ms"}
	m["gen.backlog_max"] = metric{float64(p.open.open.backlogMax), "count"}

	rm, err := replay(in, b.tmp)
	if err != nil {
		return nil, err
	}
	for k, v := range rm {
		m[k] = v
	}
	path := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.json", b.spec.name, b.seed))
	if err := spans.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", len(spans.snapshot()), path)
	b.summary(&t, p, len(p.open.latencies(pathEval)), len(p.open.latencies(pathSearch)))
	b.predictions(p)
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// attribution splits the traced run's request time across layers.
type attribution struct {
	evals, searches float64
	spans           []span
	timed           map[uint64]*result
	shardTraces     []tracing.Record
	routerTraces    []tracing.Record
	d               counters
	from, to        int64
}

func newAttribution(p *pass, spans []span) *attribution {
	a := &attribution{spans: spans, timed: make(map[uint64]*result), d: p.after.delta(p.before)}
	a.from, a.to = math.MaxInt64, 0
	for _, ph := range []*phase{p.closed, p.open} {
		for i := range ph.results {
			r := &ph.results[i]
			a.timed[r.id] = r
			a.from = min(a.from, r.sent.UnixNano())
			a.to = max(a.to, r.done.UnixNano())
			if r.req.path == pathEval {
				a.evals++
			} else {
				a.searches++
			}
		}
	}
	inWindow := func(rec tracing.Record) bool { return rec.StartUnixNS >= a.from && rec.StartUnixNS <= a.to }
	for _, e := range p.exports {
		for _, rec := range e.Traces {
			if inWindow(rec) {
				a.shardTraces = append(a.shardTraces, rec)
			}
		}
	}
	for _, rec := range p.rexport.Traces {
		if inWindow(rec) {
			a.routerTraces = append(a.routerTraces, rec)
		}
	}
	return a
}

// stageMS sums, over traces on route, the named stage's milliseconds.
func stageMS(recs []tracing.Record, route, stage string) (total float64, traces int) {
	for _, rec := range recs {
		if rec.Route != route {
			continue
		}
		traces++
		for _, s := range rec.Stages {
			if s.Name == stage {
				total += float64(s.DurationNS) / 1e6
			}
		}
	}
	return total, traces
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, end int64
	end = parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, end), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

func (a *attribution) metrics() map[string]metric {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	n := a.evals + a.searches
	kids := make(map[uint64][]span)
	for _, s := range a.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}

	// W: the span tree of every timed request.
	var handlerMS, unattributed, routerSelf, wire, attempts, barrier float64
	for _, s := range a.spans {
		if s.Name != "generator" {
			continue
		}
		r, ok := a.timed[s.ID]
		if !ok {
			continue
		}
		if len(kids[s.ID]) != 1 {
			continue
		}
		top := kids[s.ID][0]
		unattributed += ms(s.dur() - top.dur())
		if top.Name == "shard" {
			handlerMS += ms(top.dur())
			continue
		}
		tries := kids[top.ID]
		for _, at := range tries {
			for _, sh := range kids[at.ID] {
				handlerMS += ms(sh.dur())
				if r.req.path == pathEval {
					wire += ms(at.dur() - sh.dur())
				}
			}
		}
		if r.req.path == pathEval {
			routerSelf += ms(top.dur() - covered(top, append([]span(nil), tries...)))
			attempts += float64(len(tries))
		} else {
			barrier += barrierWait(tries)
		}
	}
	put("serve.handler_ms_per_req", ratio(handlerMS, n), "ms")
	put("unattributed_ms_per_req", ratio(unattributed, n), "ms")
	put("cluster.router_self_ms_per_req", ratio(routerSelf, a.evals), "ms")
	put("cluster.wire_ms_per_req", ratio(wire, a.evals), "ms")
	put("cluster.attempts_per_req", ratio(attempts, a.evals), "count")
	put("cluster.barrier_wait_ms_per_search", ratio(barrier, a.searches), "ms")
	put("store.fsyncs_per_req", ratio(float64(a.d.fs.fsyncs), n), "count")
	put("store.fsync_ms_per_req", ratio(float64(a.d.fs.fsyncNS)/1e6, n), "ms")
	put("store.write_kb_per_req", ratio(float64(a.d.fs.writeBytes)/1024, n), "KiB")

	// F: the flight recorders' stages.
	for _, st := range []string{"decode", "admission", "queue_wait", "respond"} {
		v, _ := stageMS(a.shardTraces, "/v1/eval", st)
		put("serve."+st+"_ms_per_req", ratio(v, a.evals), "ms")
	}
	evalMS, batches := stageMS(a.shardTraces, "batch", "eval")
	warmMS, _ := stageMS(a.shardTraces, "batch", "store_warm")
	persistMS, _ := stageMS(a.shardTraces, "batch", "store_persist")
	var jobs float64
	for _, rec := range a.shardTraces {
		if rec.Route == "batch" {
			j, _ := strconv.Atoi(rec.Annotations["jobs"])
			jobs += float64(j)
		}
	}
	put("serve.batches_per_req", ratio(float64(batches), a.evals), "count")
	put("serve.batch_jobs_mean", ratio(jobs, float64(batches)), "count")
	put("search.evalbatch_ms_per_req", ratio(evalMS, a.evals), "ms")
	put("store.warm_ms_per_req", ratio(warmMS, a.evals), "ms")
	put("store.persist_ms_per_req", ratio(persistMS, a.evals), "ms")
	routeMS, _ := stageMS(a.routerTraces, "cluster/v1/eval", "route")
	exchangeMS, _ := stageMS(a.routerTraces, "cluster/v1/search", "exchange")
	put("cluster.route_ms_per_req", ratio(routeMS, a.evals), "ms")
	put("cluster.exchange_ms_per_search", ratio(exchangeMS, a.searches), "ms")

	// F: the obs counters.
	sd, rd := a.d.shard, a.d.router
	hits, misses := sd["search.evalcache.hits"], sd["search.evalcache.misses"]
	put("search.evalcache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("workspan.tasks_per_req", ratio(sd["workspan.tasks"], n), "count")
	put("workspan.steals_per_req", ratio(sd["workspan.steals"], n), "count")
	put("store.appends_per_req", ratio(sd["store.appends"], n), "count")
	put("store.dedup_skips_per_req", ratio(sd["store.dedup_skips"], n), "count")
	fired := float64(rd["cluster.hedges.fired"])
	put("cluster.hedges_fired_per_kreq", ratio(fired*1000, a.evals), "count")
	put("cluster.hedge_win_ratio", ratio(float64(rd["cluster.hedges.won"]), fired), "ratio")
	put("cluster.failovers", float64(rd["cluster.failovers"]), "count")
	put("cluster.exchange_rounds_per_search", ratio(float64(rd["cluster.exchange.rounds"]), a.searches), "count")
	var routed, most float64
	for i := 0; ; i++ {
		v, ok := rd[fmt.Sprintf("cluster.routes.shard%d", i)]
		if !ok {
			break
		}
		routed += float64(v)
		most = max(most, float64(v))
	}
	put("cluster.shard_share_max", ratio(most, routed), "ratio")
	return m
}

// barrierWait sums, over a scatter-gather search's exchange rounds, the
// slowest slice's time minus the fastest's: how long the barrier held
// finished slices. Rounds are the attempts that overlap in time.
func barrierWait(tries []span) float64 {
	sort.Slice(tries, func(i, j int) bool { return tries[i].Start < tries[j].Start })
	var total float64
	for i := 0; i < len(tries); {
		j, end := i, tries[i].End
		lo, hi := tries[i].dur(), tries[i].dur()
		for j+1 < len(tries) && tries[j+1].Start < end {
			j++
			end = max(end, tries[j].End)
			lo, hi = min(lo, tries[j].dur()), max(hi, tries[j].dur())
		}
		total += ms(hi - lo)
		i = j + 1
	}
	return total
}

// predictions prints what each workload is expected to show beside the
// traced run's measurements over its timed phases.
func (b *bench) predictions(p *pass) {
	say := func(claim string, holds bool, measured string) {
		verdict := "holds"
		if !holds {
			verdict = "FAILS"
		}
		fmt.Fprintf(b.out, "prediction %s: %s (measured %s)\n", verdict, claim, measured)
	}
	all := p.after.delta(p.before)
	switch b.spec.name {
	case "hot-eval":
		h, m := all.shard["search.evalcache.hits"], all.shard["search.evalcache.misses"]
		say("hot-eval timed phases hit the EvalCache >= 99%", ratio(h, h+m) >= 0.99, fmt.Sprintf("%.4f of %.0f lookups", ratio(h, h+m), h+m))
		say("hot-eval timed phases append nothing to the store", all.shard["store.appends"] == 0, fmt.Sprintf("%.0f appends", all.shard["store.appends"]))
	case "cluster-mix":
		say("cluster-mix has zero failovers", all.router["cluster.failovers"] == 0, fmt.Sprintf("%d", all.router["cluster.failovers"]))
		served := make(map[string]float64)
		var evals, most float64
		for _, ph := range []*phase{p.closed, p.open} {
			for i := range ph.results {
				if ph.ok[i] && ph.results[i].req.path == pathEval {
					served[ph.results[i].shard]++
					evals++
				}
			}
		}
		for _, v := range served {
			most = max(most, v)
		}
		say("no shard serves more than half the evals", most <= evals/2, fmt.Sprintf("largest share %.3f of %v", ratio(most, evals), served))
	}
}
