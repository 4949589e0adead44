package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/serve"
)

// newServeShard spins up a REAL mapd serving stack behind an HTTP
// listener: the scatter-gather tests exercise the actual /v1/exchange
// protocol, not a stub of it.
func newServeShard(t *testing.T) string {
	t.Helper()
	s, err := serve.NewServer(serve.Config{
		PoolWorkers: 2,
		QueueDepth:  8,
		EvalWorkers: 1,
		BatchMax:    8,
		MaxSearches: 2,
		Clock:       clock.NewFake(time.Unix(1000, 0)),
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

const clusterSearchBody = `{
	"recurrence": {"dims": [5, 5], "deps": [[1, 0], [0, 1]]},
	"target": {"width": 4, "height": 4},
	"iters": 300, "chains": 2, "seed": 11
}`

// Byte-reproducibility across fleets: two same-seed scatter-gather
// searches against two FRESH 3-shard fleets answer identically, byte
// for byte — the property the CI cluster drill diffs end to end.
func TestScatterGatherDeterministic(t *testing.T) {
	run := func() (*httptest.ResponseRecorder, *Router) {
		urls := []string{newServeShard(t), newServeShard(t), newServeShard(t)}
		rt, _ := newTestRouter(t, urls, func(c *Config) {
			c.Replicas = 3
			c.ExchangeRounds = 3
		})
		return do(rt, "POST", "/v1/search", clusterSearchBody), rt
	}
	rec1, _ := run()
	rec2, _ := run()
	if rec1.Code != http.StatusOK || rec2.Code != http.StatusOK {
		t.Fatalf("status %d / %d: %s", rec1.Code, rec2.Code, rec1.Body.String())
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatalf("same-seed cluster searches differ:\n%s\nvs\n%s", rec1.Body.String(), rec2.Body.String())
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
	urls := []string{newServeShard(t), newServeShard(t), dead.URL}
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

// A bad request gets one shard's 4xx verdict relayed, not a 502: the
// verdict is deterministic and identical on every replica.
func TestScatterGatherRelays4xx(t *testing.T) {
	urls := []string{newServeShard(t), newServeShard(t)}
	rt, _ := newTestRouter(t, urls, nil)
	bad := `{"recurrence": {"dims": [5, 5], "deps": [[1, 0]]}, "target": {"width": 4}, "chains": 99}`
	rec := do(rt, "POST", "/v1/search", bad)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want the shards' 422 relayed: %s", rec.Code, rec.Body.String())
	}
}

// Exhaustive sweeps skip the exchange machinery: single-shard forward,
// no cluster addendum in the body.
func TestExhaustiveSearchForwardsWhole(t *testing.T) {
	urls := []string{newServeShard(t), newServeShard(t)}
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
	urls := []string{newServeShard(t), newServeShard(t), "http://127.0.0.1:1"}
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
