// Restart warmth: the persistent atlas under the serving layer. These
// tests run a server with a store, kill it (Close), and prove the next
// server over the same directory answers previously priced work from
// disk — store hits counted, no re-evaluation — and that a search
// answers the same whatever the store holds.
package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// openTestStore opens an atlas in dir, failing the test on error.
func openTestStore(t *testing.T, dir string, reg *obs.Registry) *store.Store {
	t.Helper()
	st, err := store.Open(store.OS{}, dir, store.Options{Obs: reg})
	if err != nil {
		t.Fatalf("store open: %v", err)
	}
	return st
}

func counterValue(reg *obs.Registry, name string) int64 {
	snap := reg.Snapshot()
	return snap.Counters[name]
}

func TestEvalWarmFromStoreAfterRestart(t *testing.T) {
	dir := t.TempDir()

	// First life: price two schedules, which must land in the atlas.
	reg1 := obs.New()
	st1 := openTestStore(t, dir, reg1)
	s1 := newTestServer(t, func(c *Config) { c.Store = st1; c.Obs = reg1 })
	var first EvalResponse
	if code, rec := post(t, s1, "POST", "/v1/eval", evalBody, &first); code != 200 {
		t.Fatalf("first-life eval: %d %s", code, rec.Body.String())
	}
	if got := counterValue(reg1, "serve.store.puts"); got != 2 {
		t.Fatalf("first life persisted %d mappings, want 2", got)
	}
	if got := counterValue(reg1, "serve.store.hits"); got != 0 {
		t.Fatalf("first life hit the store %d times; nothing was stored yet", got)
	}
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Second life: a fresh process (new cache, new registry) over the
	// same directory answers the identical request from the store.
	reg2 := obs.New()
	st2 := openTestStore(t, dir, reg2)
	if st2.Len() != 2 {
		t.Fatalf("recovered store holds %d mappings, want 2", st2.Len())
	}
	s2 := newTestServer(t, func(c *Config) { c.Store = st2; c.Obs = reg2 })
	defer st2.Close()
	var second EvalResponse
	if code, rec := post(t, s2, "POST", "/v1/eval", evalBody, &second); code != 200 {
		t.Fatalf("second-life eval: %d %s", code, rec.Body.String())
	}
	for i := range first.Costs {
		if second.Costs[i] != first.Costs[i] {
			t.Fatalf("restarted answer %d differs: %+v vs %+v", i, second.Costs[i], first.Costs[i])
		}
	}
	if got := counterValue(reg2, "serve.store.hits"); got != 2 {
		t.Fatalf("second life hit the store %d times, want 2", got)
	}
	// Both schedules came from disk, so the eval cache priced nothing:
	// its misses stayed zero (warmFromStore fed it before EvalBatch).
	// The cache gauges publish on scrape, so go through /v1/metrics.
	var snap obs.Snapshot
	if code, _ := post(t, s2, "GET", "/v1/metrics", "", &snap); code != 200 {
		t.Fatalf("metrics scrape: %d", code)
	}
	if misses := snap.Gauges["search.evalcache.misses"]; misses != 0 {
		t.Fatalf("restarted eval re-priced %g mappings; want all from store", misses)
	}
	if got := counterValue(reg2, "serve.store.puts"); got != 0 {
		t.Fatalf("second life re-persisted %d mappings; dedup should yield 0 appends", got)
	}
}

func TestCacheOnlyAnswersFromStoreInShedMode(t *testing.T) {
	dir := t.TempDir()
	reg1 := obs.New()
	st1 := openTestStore(t, dir, reg1)
	s1 := newTestServer(t, func(c *Config) { c.Store = st1; c.Obs = reg1 })
	if code, rec := post(t, s1, "POST", "/v1/eval", evalBody, nil); code != 200 {
		t.Fatalf("seed eval: %d %s", code, rec.Body.String())
	}
	s1.Close()
	st1.Close()

	// Restarted server in shed mode: the degraded cache-only path must
	// reach through to the store.
	reg2 := obs.New()
	st2 := openTestStore(t, dir, reg2)
	defer st2.Close()
	s2 := newTestServer(t, func(c *Config) { c.Store = st2; c.Obs = reg2 })
	s2.SetMode(ModeShed)
	var resp EvalResponse
	if code, rec := post(t, s2, "POST", "/v1/eval", evalBody, &resp); code != 200 {
		t.Fatalf("shed eval after restart: %d %s", code, rec.Body.String())
	}
	if !resp.Degraded {
		t.Fatal("shed-mode answer not marked degraded")
	}
	if got := counterValue(reg2, "serve.store.hits"); got != 2 {
		t.Fatalf("shed-mode answer hit the store %d times, want 2", got)
	}
}

// A search answer is a function of the request, not of the server's
// history: the same exhaustive sweep answers byte-identically on a fresh
// server, on one whose store already holds a cheaper mapping of the same
// graph (the list schedule below beats every p=1 affine candidate), and
// on a restart over that store. The store is a price memo for evals; a
// search neither reads nor writes it.
func TestSearchAnswerIgnoresServerHistory(t *testing.T) {
	const graph = `"recurrence": {"dims": [12, 12], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}`
	sweep := `{` + graph + `, "kind": "exhaustive", "p": 1}`
	evals := `{` + graph + `, "schedules": [{"kind": "serial"}, {"kind": "antidiagonal"}, {"kind": "list"}]}`
	search := func(s *Server) string {
		t.Helper()
		code, rec := post(t, s, "POST", "/v1/search", sweep, nil)
		if code != 200 {
			t.Fatalf("search: %d %s", code, rec.Body.String())
		}
		return rec.Body.String()
	}

	st0 := openTestStore(t, t.TempDir(), nil)
	defer st0.Close()
	fresh := search(newTestServer(t, func(c *Config) { c.Store = st0 }))

	dir := t.TempDir()
	reg1 := obs.New()
	st1 := openTestStore(t, dir, reg1)
	s1 := newTestServer(t, func(c *Config) { c.Store = st1; c.Obs = reg1 })
	var priced EvalResponse
	if code, rec := post(t, s1, "POST", "/v1/eval", evals, &priced); code != 200 {
		t.Fatalf("evals: %d %s", code, rec.Body.String())
	}
	if got := search(s1); got != fresh {
		t.Fatalf("after pricing %d evals the search answered\n%s\nbut a fresh server answered\n%s", len(priced.Costs), got, fresh)
	}
	if got := counterValue(reg1, "serve.store.puts"); got != 3 {
		t.Fatalf("store holds %d puts, want the 3 evals only", got)
	}
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	st2 := openTestStore(t, dir, nil)
	defer st2.Close()
	if got := search(newTestServer(t, func(c *Config) { c.Store = st2 })); got != fresh {
		t.Fatalf("after a restart over the priced store the search answered\n%s\nbut a fresh server answered\n%s", got, fresh)
	}
}

func TestStoreUnhealthyGaugeTripsOnQuarantine(t *testing.T) {
	dir := t.TempDir()
	reg1 := obs.New()
	st1 := openTestStore(t, dir, reg1)
	s1 := newTestServer(t, func(c *Config) { c.Store = st1; c.Obs = reg1 })
	if code, rec := post(t, s1, "POST", "/v1/eval", evalBody, nil); code != 200 {
		t.Fatalf("seed eval: %d %s", code, rec.Body.String())
	}
	s1.Close()
	st1.Close()
	if g := reg1.Snapshot().Gauges["serve.store.unhealthy"]; g != 0 {
		t.Fatalf("healthy store gauged unhealthy: %g", g)
	}

	corruptFirstSegment(t, dir)

	reg2 := obs.New()
	st2 := openTestStore(t, dir, reg2)
	defer st2.Close()
	if st2.Report().Healthy() {
		t.Fatal("corrupted store recovered healthy; fixture broken")
	}
	s2 := newTestServer(t, func(c *Config) { c.Store = st2; c.Obs = reg2 })
	_ = s2
	if g := reg2.Snapshot().Gauges["serve.store.unhealthy"]; g != 1 {
		t.Fatalf("quarantined store gauged %g, want 1", g)
	}
}

// corruptFirstSegment flips a byte in the magic of the first segment so
// recovery must quarantine it.
func corruptFirstSegment(t *testing.T, dir string) {
	t.Helper()
	name := filepath.Join(dir, "atlas-00000000.log")
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}
}
