package search

import (
	"sync"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
)

func TestEvalCacheMatchesEvaluate(t *testing.T) {
	tgt := fm.DefaultTarget(4, 1)
	g := randomGraph(2, 50)
	gfp := g.Fingerprint()
	cache := NewEvalCache()
	sched := fm.ListSchedule(g, tgt)

	direct := mustEval(g, sched, tgt)
	if got := cache.Eval(g, gfp, sched, tgt); got != direct {
		t.Fatalf("first (miss) eval %v != direct %v", got, direct)
	}
	if got := cache.Eval(g, gfp, sched, tgt); got != direct {
		t.Fatalf("second (hit) eval %v != direct %v", got, direct)
	}
	if cs := cache.SnapshotStats(); cs != (CacheStats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Errorf("stats %+v, want 1 hit, 1 miss, 1 entry", cs)
	}
}

func TestEvalCacheDistinguishesTargets(t *testing.T) {
	// The same graph+schedule priced on two targets must not share an
	// entry: the target is part of the key.
	g := randomGraph(4, 30)
	gfp := g.Fingerprint()
	cache := NewEvalCache()
	t1 := fm.DefaultTarget(4, 1)
	t2 := fm.DefaultTarget(4, 1)
	t2.Grid.PitchMM = 10 // much longer wires
	sched := fm.ListSchedule(g, t1)
	c1 := cache.Eval(g, gfp, sched, t1)
	c2 := cache.Eval(g, gfp, sched, t2)
	if c1 == c2 {
		t.Fatal("targets with different pitch priced identically — key ignores target")
	}
	if n := cache.SnapshotStats().Entries; n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
}

func TestEvalCacheDistinguishesSchedules(t *testing.T) {
	g := randomGraph(6, 30)
	gfp := g.Fingerprint()
	tgt := fm.DefaultTarget(4, 1)
	cache := NewEvalCache()
	s1 := fm.ListSchedule(g, tgt)
	s2 := fm.SerialSchedule(g, tgt, geom.Pt(0, 0))
	cache.Eval(g, gfp, s1, tgt)
	cache.Eval(g, gfp, s2, tgt)
	if n := cache.SnapshotStats().Entries; n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
}

func TestEvalCacheConcurrent(t *testing.T) {
	// Hammer one cache from many goroutines over a small working set so
	// every shard sees mixed hits and misses; run under -race in CI.
	tgt := fm.DefaultTarget(4, 4)
	g := randomGraph(8, 40)
	gfp := g.Fingerprint()
	scheds := make([]fm.Schedule, 8)
	want := make([]fm.Cost, len(scheds))
	for i := range scheds {
		scheds[i] = fm.SerialSchedule(g, tgt, tgt.Grid.At(i))
		want[i] = mustEval(g, scheds[i], tgt)
	}
	cache := NewEvalCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (w + rep) % len(scheds)
				if got := cache.Eval(g, gfp, scheds[i], tgt); got != want[i] {
					t.Errorf("worker %d: schedule %d priced %v, want %v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cs := cache.SnapshotStats()
	if cs.Entries != len(scheds) {
		t.Errorf("cache holds %d entries, want %d", cs.Entries, len(scheds))
	}
	if cs.Hits+cs.Misses != 8*50 {
		t.Errorf("hits+misses = %d, want %d", cs.Hits+cs.Misses, 8*50)
	}
	if cs.Misses < int64(len(scheds)) {
		t.Errorf("only %d misses for %d distinct schedules", cs.Misses, len(scheds))
	}
}

// TestBoundedEvalCacheDeterministic: what a bounded cache remembers is a
// function of its sequence of inserts. Two caches fed one Eval/Put
// sequence that overflows every shard many times over must agree on
// their stats and on which mappings a later Lookup finds. Shards hold
// four entries each: a one-entry shard has a single possible victim, so
// any eviction policy would pass.
func TestBoundedEvalCacheDeterministic(t *testing.T) {
	tgt := fm.DefaultTarget(4, 4)
	g := randomGraph(3, 30)
	gfp := g.Fingerprint()
	scheds := make([]fm.Schedule, 3)
	for i := range scheds {
		scheds[i] = fm.SerialSchedule(g, tgt, tgt.Grid.At(i))
	}
	const puts = 40 * evalCacheShards
	feed := func(c *EvalCache) {
		for i := 0; i < puts; i++ {
			c.Put(gfp, uint64(i)*0x9e3779b97f4a7c15, tgt, fm.Cost{Cycles: int64(i)})
			if i%7 == 0 {
				c.Eval(g, gfp, scheds[(i/7)%len(scheds)], tgt)
			}
		}
	}
	hitVector := func(c *EvalCache) []bool {
		out := make([]bool, 0, puts+len(scheds))
		for i := 0; i < puts; i++ {
			_, ok := c.Lookup(gfp, uint64(i)*0x9e3779b97f4a7c15, tgt)
			out = append(out, ok)
		}
		for _, s := range scheds {
			_, ok := c.Lookup(gfp, s.Fingerprint(), tgt)
			out = append(out, ok)
		}
		return out
	}
	a, b := NewBoundedEvalCache(4*evalCacheShards), NewBoundedEvalCache(4*evalCacheShards)
	feed(a)
	feed(b)
	sa, sb := a.SnapshotStats(), b.SnapshotStats()
	if sa != sb {
		t.Fatalf("same insert sequence, different stats: %+v vs %+v", sa, sb)
	}
	if sa.Evictions == 0 || sa.Hits == 0 {
		t.Fatalf("sequence must both evict and hit: %+v", sa)
	}
	va, vb := hitVector(a), hitVector(b)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("key %d: resident in one cache (%v) but not the other (%v)", i, va[i], vb[i])
		}
	}
}
