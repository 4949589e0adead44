package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/serve"
)

// routeBody is a minimal routable request: a graph fingerprint plus a
// target, enough for serve.RouteKey without a shard round-trip.
const routeBody = `{"graph_fp": "deadbeefcafe", "target": {"width": 4}}`

// shardFleet is a set of stub shards with settable response codes and
// drain states — the router's counterpart of serve's fake clock: every
// failure mode on demand, no real mapd process.
type shardFleet struct {
	urls     []string
	status   []*atomic.Int64
	draining []*atomic.Bool
}

func newShardFleet(t *testing.T, n int) *shardFleet {
	t.Helper()
	f := &shardFleet{}
	for i := 0; i < n; i++ {
		st := &atomic.Int64{}
		st.Store(http.StatusOK)
		dr := &atomic.Bool{}
		f.status = append(f.status, st)
		f.draining = append(f.draining, dr)
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Path == "/healthz" {
				if dr.Load() {
					w.WriteHeader(http.StatusServiceUnavailable)
					fmt.Fprint(w, `{"status": "draining", "state": "draining"}`)
					return
				}
				fmt.Fprint(w, `{"status": "ok", "state": "ready"}`)
				return
			}
			w.WriteHeader(int(st.Load()))
			fmt.Fprintf(w, `{"shard": %d}`, i)
		}))
		t.Cleanup(srv.Close)
		f.urls = append(f.urls, srv.URL)
	}
	return f
}

// newTestRouter builds a router with hedging off and a frozen clock —
// each test turns on exactly the machinery it exercises.
func newTestRouter(t *testing.T, shards []string, override func(*Config)) (*Router, *obs.Registry) {
	t.Helper()
	htr := &http.Transport{}
	t.Cleanup(htr.CloseIdleConnections)
	reg := obs.New()
	cfg := Config{
		Shards:       shards,
		Replicas:     2,
		HedgeDelay:   -1,
		ProbeTimeout: time.Second,
		Clock:        clock.NewFake(time.Unix(2000, 0)),
		Client:       &http.Client{Transport: htr},
		Obs:          reg,
	}
	if override != nil {
		override(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt, reg
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// do runs one request through the router handler.
func do(rt *Router, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rt.Handler().ServeHTTP(rec, req)
	return rec
}

// replicaSet resolves routeBody's primary and backup on rt's ring.
func replicaSet(t *testing.T, rt *Router) (primary, backup int) {
	t.Helper()
	key, err := serve.RouteKey([]byte(routeBody))
	if err != nil {
		t.Fatalf("RouteKey: %v", err)
	}
	owners := rt.ring.Owners(key, 2)
	return owners[0], owners[1]
}

func TestForwardFailover(t *testing.T) {
	fleet := newShardFleet(t, 2)
	rt, reg := newTestRouter(t, fleet.urls, nil)
	primary, backup := replicaSet(t, rt)

	// Primary answers 500: the client sees the backup's 200, never the
	// failure, and the failover is counted and attributed.
	fleet.status[primary].Store(http.StatusInternalServerError)
	rec := do(rt, "POST", "/v1/eval", routeBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover request: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cluster-Shard"); got != strconv.Itoa(backup) {
		t.Fatalf("served by shard %s, want backup %d", got, backup)
	}
	if got := rec.Header().Get("X-Cluster-Primary"); got != strconv.Itoa(primary) {
		t.Fatalf("primary header %s, want %d", got, primary)
	}
	if n := counter(reg, "cluster.failovers"); n != 1 {
		t.Fatalf("failovers = %d, want 1", n)
	}
	if rt.health.healthy(primary) {
		t.Fatalf("failed primary must be marked down")
	}

	// Primary recovers but is still down-marked: traffic keeps flowing to
	// the backup (no 500 risked on a shard the router believes is dead),
	// and that detour is still a failover.
	fleet.status[primary].Store(http.StatusOK)
	rec = do(rt, "POST", "/v1/eval", routeBody)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cluster-Shard") != strconv.Itoa(backup) {
		t.Fatalf("down-marked primary must be skipped: status %d shard %s", rec.Code, rec.Header().Get("X-Cluster-Shard"))
	}
	if n := counter(reg, "cluster.failovers"); n != 2 {
		t.Fatalf("failovers = %d, want 2", n)
	}

	// A probe observes the recovery; traffic returns to the primary and
	// the failover counter stops moving.
	if rec := do(rt, "POST", "/v1/probe", ""); rec.Code != http.StatusOK {
		t.Fatalf("probe: %d", rec.Code)
	}
	rec = do(rt, "POST", "/v1/eval", routeBody)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cluster-Shard") != strconv.Itoa(primary) {
		t.Fatalf("recovered primary must serve again: status %d shard %s", rec.Code, rec.Header().Get("X-Cluster-Shard"))
	}
	if n := counter(reg, "cluster.failovers"); n != 2 {
		t.Fatalf("failovers moved to %d after recovery, want 2", n)
	}
}

func Test4xxPassesThroughWithoutFailover(t *testing.T) {
	fleet := newShardFleet(t, 2)
	rt, reg := newTestRouter(t, fleet.urls, nil)
	primary, _ := replicaSet(t, rt)

	// A 4xx is the shard's deterministic verdict about the request;
	// retrying it on a replica would just refuse twice.
	fleet.status[primary].Store(http.StatusUnprocessableEntity)
	rec := do(rt, "POST", "/v1/eval", routeBody)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 relayed", rec.Code)
	}
	if got := rec.Header().Get("X-Cluster-Shard"); got != strconv.Itoa(primary) {
		t.Fatalf("served by %s, want primary %d", got, primary)
	}
	if n := counter(reg, "cluster.failovers"); n != 0 {
		t.Fatalf("failovers = %d, want 0", n)
	}
	if !rt.health.healthy(primary) {
		t.Fatalf("a 4xx must not mark the shard down")
	}
}

func TestAllReplicasDownIs502(t *testing.T) {
	fleet := newShardFleet(t, 2)
	rt, reg := newTestRouter(t, fleet.urls, nil)
	for _, st := range fleet.status {
		st.Store(http.StatusInternalServerError)
	}
	rec := do(rt, "POST", "/v1/eval", routeBody)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 when every replica failed", rec.Code)
	}
	if n := counter(reg, "cluster.no_replica"); n != 1 {
		t.Fatalf("no_replica = %d, want 1", n)
	}
}

// A body with no graph identity cannot be routed by content; it still
// goes to a shard, so the client gets mapd's own 422, byte for byte.
func TestUnroutableBodyIs422(t *testing.T) {
	_, urls := newFleet(t, 2)
	rt, _ := newTestRouter(t, urls, nil)
	single := newFleetShard(t)
	const body = `{"target": {"width": 4}}`
	for _, path := range []string{"/v1/eval", "/v1/search"} {
		rec := do(rt, "POST", path, body)
		want := single.serve(httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != http.StatusUnprocessableEntity || rec.Body.String() != want.Body.String() {
			t.Fatalf("%s: status %d %s, want a single mapd's 422 %s", path, rec.Code, rec.Body.String(), want.Body.String())
		}
	}
}

// A body over serve.MaxBodyBytes is refused by the router itself, before
// any shard sees it, in a single mapd's status, layout and words.
func TestOversizeBodyMatchesSingleMapd(t *testing.T) {
	fleet := newShardFleet(t, 2)
	rt, _ := newTestRouter(t, fleet.urls, nil)
	single := newFleetShard(t)
	body := `{"graph_fp": "` + strings.Repeat("a", serve.MaxBodyBytes) + `"}`
	for _, path := range []string{"/v1/eval", "/v1/search"} {
		rec := do(rt, "POST", path, body)
		want := single.serve(httptest.NewRequest("POST", path, strings.NewReader(body)))
		if want.Code != http.StatusBadRequest || rec.Code != want.Code || rec.Body.String() != want.Body.String() ||
			rec.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("%s\nrouter: %d %v %s\nsingle: %d %v %s", path,
				rec.Code, rec.Header(), rec.Body.String(), want.Code, want.Header(), want.Body.String())
		}
	}
}

func TestRouterDraining(t *testing.T) {
	fleet := newShardFleet(t, 2)
	rt, reg := newTestRouter(t, fleet.urls, nil)
	rt.Drain()
	rec := do(rt, "POST", "/v1/eval", routeBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", rec.Code)
	}
	if n := counter(reg, "cluster.refused"); n != 1 {
		t.Fatalf("refused = %d, want 1", n)
	}
	rec = do(rt, "GET", "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503 while draining", rec.Code)
	}
	var h routerHealthz
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.State != "draining" {
		t.Fatalf("healthz body %q (err %v), want state draining", rec.Body.String(), err)
	}
}

func TestProbeSeesDrainingShard(t *testing.T) {
	fleet := newShardFleet(t, 2)
	rt, _ := newTestRouter(t, fleet.urls, nil)
	primary, backup := replicaSet(t, rt)

	// The shard starts its shutdown: readiness flips to draining, and the
	// next probe reroutes its keys before any forward has to fail.
	fleet.draining[primary].Store(true)
	if rec := do(rt, "POST", "/v1/probe", ""); rec.Code != http.StatusOK {
		t.Fatalf("probe: %d", rec.Code)
	}
	rec := do(rt, "GET", "/healthz", "")
	var h routerHealthz
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if h.Shards[primary].Up || h.Shards[primary].Reason != "draining" {
		t.Fatalf("draining shard state = %+v, want down/draining", h.Shards[primary])
	}
	rec = do(rt, "POST", "/v1/eval", routeBody)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cluster-Shard") != strconv.Itoa(backup) {
		t.Fatalf("draining primary must be bypassed: status %d shard %s", rec.Code, rec.Header().Get("X-Cluster-Shard"))
	}
}
