package search

import (
	"sync"
	"sync/atomic"

	"repro/internal/bounded"
	"repro/internal/fm"
	"repro/internal/obs"
)

// evalCacheShards is the number of independently locked map shards. 64 is
// far beyond any plausible worker count, so two workers contend only when
// their schedule fingerprints collide modulo 64.
const evalCacheShards = 64

// evalKey identifies one priced mapping. The graph and schedule enter by
// 64-bit structural fingerprint (see fm.Graph.Fingerprint and
// fm.Schedule.Fingerprint); the target enters by value, since Target is a
// small comparable struct and costs depend on every field of it. Two
// distinct mappings share a key only if both fingerprints collide at
// once, ~2^-128 per pair — far below any hardware error rate.
type evalKey struct {
	graph, sched uint64
	tgt          fm.Target
}

type evalShard struct {
	mu sync.Mutex
	m  *bounded.Map[evalKey, fm.Cost] // guarded by mu
}

// EvalCache memoizes fm.Evaluate results so a candidate mapping proposed
// repeatedly — by different annealing chains, by retries after rejected
// moves, or by separate searches over the same graph — is priced exactly
// once. It is safe for concurrent use from any number of search workers;
// the map is sharded by schedule fingerprint behind per-shard mutexes so
// workers rarely contend. Hits return the identical Cost that Evaluate
// would have produced (Evaluate is deterministic), so caching never
// changes search results, only their price.
type EvalCache struct {
	shards    [evalCacheShards]evalShard
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewEvalCache returns an empty, unbounded cache.
func NewEvalCache() *EvalCache {
	return NewBoundedEvalCache(0)
}

// NewBoundedEvalCache returns a cache bounded per shard (0 = unbounded):
// each of the 64 shards holds ceil(maxEntries/64) priced mappings, so
// the cache holds up to maxEntries rounded up to a multiple of 64 (a
// bound of 100 holds up to 128). A full shard evicts its oldest
// insertion, so which mappings are remembered is a function of the
// shard's sequence of inserts. Eviction changes only which results are
// *remembered*, never what Eval returns — a re-miss re-prices the
// mapping through the deterministic evaluator — so bounding memory is
// always safe for search results.
func NewBoundedEvalCache(maxEntries int) *EvalCache {
	c := &EvalCache{}
	for i := range c.shards {
		// ceil(maxEntries/64), which is <= 0 (unbounded) when maxEntries is.
		c.shards[i].m = bounded.New[evalKey, fm.Cost]((maxEntries + evalCacheShards - 1) / evalCacheShards)
	}
	return c
}

// Eval prices g+sched on tgt, consulting the cache first. gfp must be
// g.Fingerprint(), hoisted to the caller because every search prices many
// schedules of one graph and the graph hash is O(nodes + edges). Two
// workers racing on the same absent key may both evaluate; both compute
// the same Cost, so the duplicated work is bounded and harmless.
func (c *EvalCache) Eval(g *fm.Graph, gfp uint64, sched fm.Schedule, tgt fm.Target) fm.Cost {
	sfp := sched.Fingerprint()
	if cost, ok := c.Lookup(gfp, sfp, tgt); ok {
		return cost
	}
	c.misses.Add(1)
	cost := mustEval(g, sched, tgt)
	c.Put(gfp, sfp, tgt, cost)
	return cost
}

// Put memoizes an externally computed cost for the mapping identified
// by the graph fingerprint gfp, schedule fingerprint sfp, and target.
// The cost MUST be bit-identical to what Evaluate would return for that
// mapping — the delta evaluator's contract — so hits stay
// indistinguishable from evaluations. The annealer's delta path uses it
// to publish each new best, giving other chains and sweeps sharing the
// cache a hit for the mappings most likely to be re-proposed. The same
// capacity bound as Eval applies.
func (c *EvalCache) Put(gfp, sfp uint64, tgt fm.Target, cost fm.Cost) {
	k := evalKey{graph: gfp, sched: sfp, tgt: tgt}
	sh := &c.shards[k.sched%evalCacheShards]
	sh.mu.Lock()
	if sh.m.Put(k, cost) {
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
}

// Lookup probes the cache for an already-priced mapping without
// evaluating on a miss. gfp and sfp are the graph and schedule
// fingerprints. A successful probe counts as a hit; a failed one counts
// nothing (misses stay paired with evaluations), so probe-heavy callers
// — the serving layer's cache-only degraded mode — do not distort the
// miss rate. Safe for concurrent use.
func (c *EvalCache) Lookup(gfp, sfp uint64, tgt fm.Target) (fm.Cost, bool) {
	k := evalKey{graph: gfp, sched: sfp, tgt: tgt}
	sh := &c.shards[k.sched%evalCacheShards]
	sh.mu.Lock()
	cost, ok := sh.m.Get(k)
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return cost, ok
}

// CacheStats is a point-in-time copy of an EvalCache's counters, in the
// shape serving and reporting callers expose: hits, misses, evictions,
// and resident entries.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// SnapshotStats freezes the cache's counters; it is the cache's one
// read. The counters and the per-shard entry counts are read
// independently (not under one lock), so a snapshot taken under
// concurrent traffic is approximate by at most the in-flight requests.
func (c *EvalCache) SnapshotStats() CacheStats {
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.m.Len()
		sh.mu.Unlock()
	}
	return s
}

// PublishObs sets the cache's current hit/miss/eviction/occupancy
// totals as gauges under "search.evalcache.*". Gauges (not counters) so
// republishing at every progress barrier is idempotent. No-op on a nil
// cache or registry.
func (c *EvalCache) PublishObs(r *obs.Registry) {
	if c == nil || !r.Enabled() {
		return
	}
	s := c.SnapshotStats()
	r.Gauge("search.evalcache.hits").Set(float64(s.Hits))
	r.Gauge("search.evalcache.misses").Set(float64(s.Misses))
	r.Gauge("search.evalcache.evictions").Set(float64(s.Evictions))
	r.Gauge("search.evalcache.entries").Set(float64(s.Entries))
}
