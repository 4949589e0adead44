package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leaktest"
)

// waitUntil polls cond without reading the wall clock (the retry count
// bounds the wait instead).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// The hedge contract, pinned on the fake clock: a slow primary is
// hedged at EXACTLY the configured delay — not a tick before — the
// replica's answer wins, and the loser's request is cancelled rather
// than left running to completion.
func TestHedgeFiresAtExactDelay(t *testing.T) {
	leaktest.Check(t)
	clk := clock.NewFake(time.Unix(3000, 0))
	var slowIdx atomic.Int64
	slowIdx.Store(-1)
	slowStarted := make(chan struct{}, 1)
	slowCancelled := make(chan struct{}, 1)
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if int64(i) == slowIdx.Load() {
				// Drain the body so the server's disconnect detection is
				// armed; r.Context() only dies on cancel after that.
				_, _ = io.Copy(io.Discard, r.Body)
				select {
				case slowStarted <- struct{}{}:
				default:
				}
				// A shard that never answers until the router gives up on
				// it: the only way out is the request context dying.
				<-r.Context().Done()
				select {
				case slowCancelled <- struct{}{}:
				default:
				}
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"shard": %d}`, i)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	rt, reg := newTestRouter(t, urls, func(c *Config) {
		c.HedgeDelay = 50 * time.Millisecond
		c.Clock = clk
	})
	primary, backup := replicaSet(t, rt)
	slowIdx.Store(int64(primary))

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(routeBody))
		rt.Handler().ServeHTTP(rec, req)
	}()

	<-slowStarted
	waitUntil(t, "hedge timer armed", func() bool { return clk.Waiters() >= 1 })

	// One tick short of the delay: nothing may fire.
	clk.Advance(49 * time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if n := counter(reg, "cluster.hedges.fired"); n != 0 {
		t.Fatalf("hedge fired %d at 49ms of a 50ms delay", n)
	}
	select {
	case <-done:
		t.Fatalf("request finished before the hedge delay elapsed")
	default:
	}

	// The 50th millisecond: the hedge fires, the replica answers, the
	// request completes with the hedged answer.
	clk.Advance(1 * time.Millisecond)
	<-done
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged request: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cluster-Shard"); got != strconv.Itoa(backup) {
		t.Fatalf("served by %s, want hedge target %d", got, backup)
	}
	if rec.Header().Get("X-Cluster-Hedged") != "true" {
		t.Fatalf("winning answer not marked hedged")
	}
	if fired, won := counter(reg, "cluster.hedges.fired"), counter(reg, "cluster.hedges.won"); fired != 1 || won != 1 {
		t.Fatalf("hedges fired=%d won=%d, want 1/1", fired, won)
	}
	if n := counter(reg, "cluster.failovers"); n != 0 {
		t.Fatalf("a won hedge is not a failover, got %d", n)
	}

	// The loser must be reaped: its context died when the winner returned.
	// (leaktest.Check then proves its goroutines are gone too.)
	select {
	case <-slowCancelled:
	case <-time.After(5 * time.Second):
		t.Fatalf("slow primary's request was never cancelled")
	}
}

// A derived hedge delay comes from the latency window's quantile,
// floored at HedgeMin. A cold window derives none: with nothing to
// compare against, a hedge would price a cold shard's first request
// twice.
func TestDerivedHedgeDelay(t *testing.T) {
	fleet := newShardFleet(t, 2)
	derive := func(c *Config) {
		c.HedgeDelay = 0
		c.HedgeMin = 3 * time.Millisecond
	}
	rt, _ := newTestRouter(t, fleet.urls, derive)
	for i := 0; i < latencyWindowMin-1; i++ {
		rt.lat.observe(10 * time.Millisecond)
	}
	if d, ok := rt.hedgeDelay(); ok {
		t.Fatalf("cold window of %d samples: delay %v ok=true, want no hedge", latencyWindowMin-1, d)
	}
	for i := 0; i < 64; i++ {
		rt.lat.observe(10 * time.Millisecond)
	}
	if d, ok := rt.hedgeDelay(); !ok || d != 10*time.Millisecond {
		t.Fatalf("warm window: delay %v ok=%v, want the 10ms p99", d, ok)
	}
	fast, _ := newTestRouter(t, fleet.urls, derive)
	for i := 0; i < 64; i++ {
		fast.lat.observe(time.Millisecond)
	}
	if d, ok := fast.hedgeDelay(); !ok || d != 3*time.Millisecond {
		t.Fatalf("fast warm window: delay %v ok=%v, want the 3ms floor", d, ok)
	}
	rt2, _ := newTestRouter(t, fleet.urls, nil) // HedgeDelay -1
	if _, ok := rt2.hedgeDelay(); ok {
		t.Fatalf("negative HedgeDelay must disable hedging")
	}
}

// A search the router relays whole — a sweep, or a body mapd refuses —
// is never hedged: a sweep outlives any delay derived from millisecond
// evals, and a hedge would only price it on a second replica. While the
// primary holds the request no hedge timer is armed, and the backup
// receives nothing even after the clock passes the hedge delay.
func TestRelayedSearchIsNotHedged(t *testing.T) {
	leaktest.Check(t)
	clk := clock.NewFake(time.Unix(3000, 0))
	var primary atomic.Int64
	var hits [2]atomic.Int64
	held, release := make(chan struct{}, 1), make(chan struct{})
	urls := make([]string, 2)
	for i := range urls {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			_, _ = io.Copy(io.Discard, r.Body)
			if int64(i) == primary.Load() {
				held <- struct{}{}
				<-release
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"shard": %d}`, i)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	// Registered after the servers' Close, so it runs first: a failed
	// check cannot leave a handler blocked under a closing server.
	t.Cleanup(func() { close(release) })
	rt, reg := newTestRouter(t, urls, func(c *Config) {
		c.HedgeDelay = 50 * time.Millisecond
		c.Clock = clk
	})
	p, backup := replicaSet(t, rt)
	primary.Store(int64(p))
	for _, body := range []string{
		`{"graph_fp": "deadbeefcafe", "target": {"width": 4}, "kind": "exhaustive"}`,
		`{"graph_fp": "deadbeefcafe", "target": {"width": 4}, "iters": -1}`,
	} {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- do(rt, "POST", "/v1/search", body) }()
		select {
		case <-held:
		case rec := <-done:
			t.Fatalf("%s: answered %d without reaching the primary: %s", body, rec.Code, rec.Body.String())
		}
		time.Sleep(20 * time.Millisecond)
		if n := clk.Waiters(); n != 0 {
			t.Fatalf("%s: %d hedge timers armed while the primary holds it, want 0", body, n)
		}
		clk.Advance(time.Second)
		time.Sleep(20 * time.Millisecond)
		release <- struct{}{}
		rec := <-done
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cluster-Shard") != strconv.Itoa(p) {
			t.Fatalf("%s: status %d from shard %s, want the primary's 200", body, rec.Code, rec.Header().Get("X-Cluster-Shard"))
		}
	}
	if n, fired := hits[backup].Load(), counter(reg, "cluster.hedges.fired"); n != 0 || fired != 0 {
		t.Fatalf("backup received %d requests, %d hedges fired; want 0 and 0", n, fired)
	}
}
