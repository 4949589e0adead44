package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/stats"
)

// healthState is the router's view of shard liveness: updated passively
// by failed forwards and actively by the prober, read on every routing
// decision. A down mark carries its reason so /healthz on the router can
// explain WHY a shard is unrouted ("draining" and "unreachable" demand
// different operator responses).
type healthState struct {
	mu     sync.Mutex
	up     []bool   // guarded by mu
	reason []string // guarded by mu
}

func newHealthState(n int) *healthState {
	h := &healthState{up: make([]bool, n), reason: make([]string, n)}
	// Shards start routable: the first probe or the first failed forward
	// corrects optimism, whereas starting pessimistic would refuse all
	// traffic until a probe cycle completes.
	for i := range h.up {
		h.up[i] = true
	}
	return h
}

func (h *healthState) markUp(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.up[i] = true
	h.reason[i] = ""
}

func (h *healthState) markDown(i int, reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.up[i] = false
	h.reason[i] = reason
}

func (h *healthState) healthy(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.up[i]
}

// snapshot copies the full state for /healthz rendering.
func (h *healthState) snapshot() ([]bool, []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	up := append([]bool(nil), h.up...)
	reason := append([]string(nil), h.reason...)
	return up, reason
}

// latencyWindow is a bounded ring of recent forward latencies feeding
// the quantile-derived hedge delay. Seconds as float64 because that is
// what stats.Percentile consumes.
type latencyWindow struct {
	mu      sync.Mutex
	samples []float64 // guarded by mu; ring buffer, len == cap once full
	next    int       // guarded by mu
}

// latencyWindowSize bounds the quantile's memory: enough samples for a
// stable upper quantile, small enough that a latency regime change
// re-derives the hedge delay within a few hundred requests. Below
// latencyWindowMin samples the window is cold and names no quantile.
const (
	latencyWindowSize = 256
	latencyWindowMin  = 16
)

func newLatencyWindow() *latencyWindow {
	return &latencyWindow{samples: make([]float64, 0, latencyWindowSize)}
}

func (l *latencyWindow) observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) < latencyWindowSize {
		l.samples = append(l.samples, d.Seconds())
		return
	}
	l.samples[l.next] = d.Seconds()
	l.next = (l.next + 1) % latencyWindowSize
}

// quantile returns the q-th percentile (q in [0,100]) of the window, and
// whether enough samples exist to trust it.
func (l *latencyWindow) quantile(q float64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) < latencyWindowMin {
		return 0, false
	}
	sec := stats.Percentile(l.samples, q)
	return time.Duration(sec * float64(time.Second)), true
}

// shardHealthz is the subset of a shard's /healthz body the prober acts
// on (decoded leniently — the shard owns its own schema).
type shardHealthz struct {
	State          string `json:"state"`
	StoreUnhealthy bool   `json:"store_unhealthy"`
}

// ProbeOnce polls every shard's /healthz and updates the health state:
// ready shards come (back) up, draining / store-degraded / unreachable
// shards go down with the corresponding reason. Probes run sequentially
// in shard order — a handful of local HTTP calls — so the resulting
// state transitions are deterministic for the drills.
func (rt *Router) ProbeOnce(ctx context.Context) {
	for i := range rt.cfg.Shards {
		rt.probeShard(ctx, i)
	}
}

func (rt *Router) probeShard(ctx context.Context, i int) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rt.cfg.Shards[i]+"/healthz", nil)
	if err != nil {
		rt.health.markDown(i, "unreachable")
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.health.markDown(i, "unreachable")
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var h shardHealthz
	_ = json.Unmarshal(body, &h)
	switch {
	case h.State == "draining" || resp.StatusCode == http.StatusServiceUnavailable:
		rt.health.markDown(i, "draining")
	case resp.StatusCode != http.StatusOK:
		rt.health.markDown(i, fmt.Sprintf("status %d", resp.StatusCode))
	case h.StoreUnhealthy:
		rt.health.markDown(i, "store_unhealthy")
	default:
		rt.health.markUp(i)
	}
}

// ProbeLoop runs ProbeOnce every `every` until ctx is done. The wait
// sits on the Clock seam, so a frozen-clock router (the determinism
// drills) never probes on its own — only passively or via /v1/probe.
func (rt *Router) ProbeLoop(ctx context.Context, every time.Duration) {
	for {
		tick, stop := rt.clock.Timer(every)
		select {
		case <-ctx.Done():
			stop()
			return
		case <-tick:
		}
		rt.ProbeOnce(ctx)
	}
}
