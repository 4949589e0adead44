package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs/tracing"
)

const clusterSearchBody = `{
	"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]},
	"target": {"width": 4, "height": 4},
	"iters": 300, "chains": 2, "seed": 11
}`

// Byte-reproducibility across fleets: two same-seed scatter-gather
// searches against two FRESH 3-shard fleets answer identically, byte
// for byte, and the two routers' frozen-clock flight recorders export
// byte-identical traces, as JSON and as Chrome trace events. Router
// annotations name shard indices, so the fleets' ports do not leak in.
func TestScatterGatherDeterministic(t *testing.T) {
	run := func() (search, traces, chrome *httptest.ResponseRecorder) {
		_, urls := newFleet(t, 3)
		rt, _ := newTestRouter(t, urls, func(c *Config) {
			c.Replicas = 3
			c.ExchangeRounds = 3
			c.Tracer = tracing.New(tracing.Options{Seed: 1, Capacity: 64, ExemplarK: 2, Clock: c.Clock})
		})
		return do(rt, "POST", "/v1/search", clusterSearchBody),
			do(rt, "GET", "/debug/traces", ""), do(rt, "GET", "/debug/traces?format=chrome", "")
	}
	rec1, traces1, chrome1 := run()
	rec2, traces2, chrome2 := run()
	if rec1.Code != http.StatusOK || rec2.Code != http.StatusOK {
		t.Fatalf("status %d / %d: %s", rec1.Code, rec2.Code, rec1.Body.String())
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatalf("same-seed cluster searches differ:\n%s\nvs\n%s", rec1.Body.String(), rec2.Body.String())
	}
	if !strings.Contains(traces1.Body.String(), `"cluster/v1/search"`) || chrome1.Body.Len() == 0 {
		t.Fatalf("router recorded no search trace: %s", traces1.Body.String())
	}
	if !bytes.Equal(traces1.Body.Bytes(), traces2.Body.Bytes()) {
		t.Fatalf("same-seed router trace exports differ:\n%s\nvs\n%s", traces1.Body.String(), traces2.Body.String())
	}
	if !bytes.Equal(chrome1.Body.Bytes(), chrome2.Body.Bytes()) {
		t.Fatalf("same-seed router Chrome exports differ:\n%s\nvs\n%s", chrome1.Body.String(), chrome2.Body.String())
	}
	var resp clusterSearchResponse
	if err := json.Unmarshal(rec1.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Cluster.Rounds != 3 || len(resp.Cluster.Replicas) != 3 {
		t.Fatalf("cluster info %+v, want 3 rounds over 3 replicas", resp.Cluster)
	}
	if resp.Cluster.WinnerShard < 0 || resp.Cluster.WinnerShard > 2 {
		t.Fatalf("winner shard %d out of range", resp.Cluster.WinnerShard)
	}
	if resp.DoneIters != 300 || resp.TotalIters != 300 || resp.Partial {
		t.Fatalf("progress %d/%d partial=%v, want the full 300", resp.DoneIters, resp.TotalIters, resp.Partial)
	}
	if resp.Best.Objective <= 0 {
		t.Fatalf("objective %v, want positive makespan", resp.Best.Objective)
	}
}

// A shard that 5xxs every exchange slice is dropped from later rounds
// and the search still answers from the survivors.
func TestScatterGatherSurvivesDeadShard(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	_, urls := newFleet(t, 2)
	urls = append(urls, dead.URL)
	rt, reg := newTestRouter(t, urls, func(c *Config) {
		c.Replicas = 3
		c.ExchangeRounds = 2
	})
	rec := do(rt, "POST", "/v1/search", clusterSearchBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp clusterSearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Cluster.WinnerShard == 2 {
		t.Fatalf("dead shard won the search")
	}
	if rt.health.healthy(2) {
		t.Fatalf("dead shard must be marked down after a failed slice")
	}
	if n := counter(reg, "cluster.exchange.rounds"); n != 2 {
		t.Fatalf("exchange rounds = %d, want 2", n)
	}
}

// A bad search gets a single mapd's 4xx, byte for byte, not a 502 and
// not a refusal in the router's own words. The router relays a body
// mapd's validator refuses, or one it cannot route, whole; it scatters a
// valid anneal of a graph no shard knows, and relays the first slice's
// verdict, which is the request's and the same on every replica.
func TestScatterGatherRelays4xx(t *testing.T) {
	_, urls := newFleet(t, 2)
	rt, reg := newTestRouter(t, urls, nil)
	single := newFleetShard(t)
	routed := int64(0)
	for _, bad := range []string{
		`{"recurrence": {"dims": [5, 5], "deps": [[1, 0]]}, "target": {"width": 4}, "chains": 99}`,
		`{"recurrence": {"dims": [4, 4], "deps": [[0, -1]]}, "target": {"width": 4}}`,
		`{"graph_fp": "1f2e3d4c5b6a7988", "target": {"width": 4}, "iters": 300}`,
	} {
		rec := do(rt, "POST", "/v1/search", bad)
		want := single.serve(httptest.NewRequest("POST", "/v1/search", strings.NewReader(bad)))
		if want.Code < 400 || want.Code >= 500 || rec.Code != want.Code || rec.Body.String() != want.Body.String() {
			t.Fatalf("%s\nrouter: %d %s\nsingle: %d %s", bad, rec.Code, rec.Body.String(), want.Code, want.Body.String())
		}
		// Every relayed answer, a scattered slice's included, counts as
		// one route of the shard that gave it.
		routed++
		if got := counter(reg, "cluster.routes.shard0") + counter(reg, "cluster.routes.shard1"); got != routed {
			t.Fatalf("%s\nroute counters sum to %d, want %d", bad, got, routed)
		}
	}
}

// searchWithDeadline posts body to /v1/search on h with an
// X-Deadline-Ms header.
func searchWithDeadline(h http.Handler, body, deadline string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(body))
	req.Header.Set("X-Deadline-Ms", deadline)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// A scattered anneal honours the client's X-Deadline-Ms as a single mapd
// does: a malformed header is refused in mapd's own words, byte for
// byte, and a valid one reaches every slice of every round, as the time
// left of it (the whole of it under the router's frozen clock).
func TestScatterGatherRelaysDeadline(t *testing.T) {
	shards, urls := newFleet(t, 2)
	var mu sync.Mutex
	seen := make([][]string, len(shards))
	for i, sh := range shards {
		inner := *sh.handler.Load()
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/exchange" {
				mu.Lock()
				seen[i] = append(seen[i], r.Header.Get("X-Deadline-Ms"))
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		})
		sh.handler.Store(&h)
	}
	rt, _ := newTestRouter(t, urls, func(c *Config) { c.ExchangeRounds = 2 })
	single := newFleetShard(t)

	rec := searchWithDeadline(rt.Handler(), clusterSearchBody, "soon")
	want := searchWithDeadline(*single.handler.Load(), clusterSearchBody, "soon")
	if want.Code != http.StatusBadRequest || rec.Code != want.Code || rec.Body.String() != want.Body.String() {
		t.Fatalf("malformed deadline\nrouter: %d %s\nsingle: %d %s", rec.Code, rec.Body.String(), want.Code, want.Body.String())
	}

	for i := range seen {
		seen[i] = nil
	}
	if rec := searchWithDeadline(rt.Handler(), clusterSearchBody, "60000"); rec.Code != http.StatusOK {
		t.Fatalf("valid deadline: status %d: %s", rec.Code, rec.Body.String())
	}
	for i, got := range seen {
		if len(got) != 2 || got[0] != "60000" || got[1] != "60000" {
			t.Fatalf("shard %d's exchange slices carried X-Deadline-Ms %q, want 60000 in each of 2 rounds", i, got)
		}
	}
}

// A slice's 504 is the client's own deadline expiring on that shard (the
// stubs answer as such a shard does): the router relays it as the
// request's verdict, counted as one route, and marks no shard down, as
// it does for a forward.
func TestScatterGatherRelaysDeadlineExpiry(t *testing.T) {
	f := newShardFleet(t, 2)
	for _, st := range f.status {
		st.Store(http.StatusGatewayTimeout)
	}
	rt, reg := newTestRouter(t, f.urls, nil)
	rec := searchWithDeadline(rt.Handler(), clusterSearchBody, "1")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want the slice's 504: %s", rec.Code, rec.Body.String())
	}
	for s := range f.urls {
		if !rt.health.healthy(s) {
			t.Fatalf("shard %d marked down for the client's expired deadline", s)
		}
	}
	if got := counter(reg, "cluster.routes.shard0") + counter(reg, "cluster.routes.shard1"); got != 1 {
		t.Fatalf("route counters sum to %d, want 1", got)
	}
}

// Exhaustive sweeps skip the exchange machinery: single-shard forward,
// no cluster addendum in the body.
func TestExhaustiveSearchForwardsWhole(t *testing.T) {
	_, urls := newFleet(t, 2)
	rt, _ := newTestRouter(t, urls, nil)
	body := `{"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]}, "target": {"width": 4}, "kind": "exhaustive"}`
	rec := do(rt, "POST", "/v1/search", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Cluster-Shard") == "" {
		t.Fatalf("forwarded search missing shard attribution")
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, ok := raw["cluster"]; ok {
		t.Fatalf("exhaustive forward must relay the shard body verbatim, found cluster addendum")
	}
}

// The router's /v1/metrics aggregates its own counters with every
// shard's snapshot, index-aligned, null for unreachable shards.
func TestMetricsAggregation(t *testing.T) {
	_, urls := newFleet(t, 2)
	urls = append(urls, "http://127.0.0.1:1")
	rt, _ := newTestRouter(t, urls, func(c *Config) { c.Replicas = 2 })
	rec := do(rt, "GET", "/v1/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var agg aggregatedMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &agg); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(agg.Shards) != 3 {
		t.Fatalf("want 3 shard slots, got %d", len(agg.Shards))
	}
	isNull := func(m json.RawMessage) bool { return len(m) == 0 || string(m) == "null" }
	if isNull(agg.Shards[0]) || isNull(agg.Shards[1]) {
		t.Fatalf("reachable shards must carry snapshots")
	}
	if !isNull(agg.Shards[2]) {
		t.Fatalf("unreachable shard must aggregate as null, got %s", agg.Shards[2])
	}
	if _, ok := agg.Cluster.Counters["cluster.search.requests"]; !ok {
		t.Fatalf("router counters missing from the aggregate: %v", agg.Cluster.Counters)
	}
}
