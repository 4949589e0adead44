// Package cluster is the sharded serving tier: a stateless HTTP
// coordinator (cmd/maprouter) that partitions mapd work across N shard
// processes by content — the graph fingerprint, serve.RouteKey — so
// every request about one graph, for any schedule or target, lands on
// one replica set. Each shard's graph registry, EvalCache and mapping
// atlas then serve a stable key range and stay hot, the way a single
// process's cache stays hot only if the request stream it sees is the
// request stream it warmed on.
//
// Three mechanisms, each deliberately boring:
//
//   - routing: a rendezvous-hash ring (ring.go) maps every key to an
//     ordered replica set of R shards; the first healthy replica gets
//     the request;
//   - failover + hedging (forward.go): a dead or 5xx-ing replica is
//     retried on the next one (never a client-visible error while any
//     replica lives; a 504 is the client's deadline and is relayed),
//     and a slow one is hedged after a quantile-derived delay on the
//     Clock seam — the replica answers, the loser's request context is
//     cancelled;
//   - scatter-gather search (exchange.go): /v1/search fans annealing
//     slices across the replica set and the router arbitrates exchange
//     barriers between rounds, generalizing the in-process multi-chain
//     exchange across processes with a deterministic winner rule; every
//     other search (a sweep, or one mapd would refuse) is relayed whole.
//
// The router holds no durable state and no request affinity: everything
// it knows (ring scores, health marks, latency window) is reconstructed
// from config and live traffic, so N routers could run behind one VIP
// and crash-restarting the router is always safe.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/serve"
)

// Config assembles a Router.
type Config struct {
	// Shards are the shard base URLs ("http://host:port"), index order
	// fixed for the router's lifetime — the ring hashes indices, so the
	// order IS the cluster identity and must match across restarts.
	Shards []string
	// Replicas is the ownership factor R: each key's replica set size
	// (primary + R-1 failover/hedge targets). Default 2, clamped to the
	// shard count.
	Replicas int
	// HedgeDelay, when positive, is a fixed hedge trigger. Zero derives
	// the delay from the observed forward-latency quantile (HedgeQuantile,
	// floored at HedgeMin); no hedge fires until the latency window holds
	// 16 samples. Negative disables hedging.
	HedgeDelay time.Duration
	// HedgeQuantile is the latency percentile (0..100) a request must
	// outlive before its hedge fires. Default 99.
	HedgeQuantile float64
	// HedgeMin floors the derived delay so a burst of cache-hit-fast
	// responses cannot drive the hedge into firing on every request.
	// Default 2ms.
	HedgeMin time.Duration
	// ExchangeRounds is the number of scatter-gather barrier rounds a
	// /v1/search anneal runs. Default 3, clamped to 1..64 (the shard
	// protocol bound).
	ExchangeRounds int
	// ProbeTimeout bounds one health probe. Default 2s.
	ProbeTimeout time.Duration
	// Clock is the time seam; nil means clock.System.
	Clock clock.Clock
	// Client issues shard requests; nil means a default client. The
	// router never sets client-level timeouts — per-attempt lifetimes are
	// request-context children, so cancelling a loser is surgical.
	Client *http.Client
	// Obs receives cluster.* metrics; nil disables (nil-safe registry).
	Obs *obs.Registry
	// Tracer records router request traces; nil disables.
	Tracer *tracing.Tracer
}

// SystemClock is clock.System, kept under this name for callers that
// configure a router with cluster.SystemClock{}.
type SystemClock = clock.System

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Shards) {
		c.Replicas = len(c.Shards)
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = 99
	}
	if c.HedgeMin == 0 {
		c.HedgeMin = 2 * time.Millisecond
	}
	if c.ExchangeRounds <= 0 {
		c.ExchangeRounds = 3
	}
	if c.ExchangeRounds > 64 {
		c.ExchangeRounds = 64
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Router is the cluster coordinator. Create with NewRouter, mount
// Handler on an http.Server; Drain flips new requests to 503.
type Router struct {
	cfg    Config
	clock  clock.Clock
	reg    *obs.Registry
	tracer *tracing.Tracer
	client *http.Client

	ring   *Ring
	health *healthState
	lat    *latencyWindow

	draining atomic.Bool
	mux      *http.ServeMux

	// Instruments, resolved once; all nil-safe.
	mEvalRequests, mSearchRequests, mSlackRequests *obs.Counter
	mHedgesFired, mHedgesWon, mFailovers           *obs.Counter
	mExchangeRounds, mNoReplica, mRefused          *obs.Counter
	mRoutes                                        []*obs.Counter
	mForwardLatency                                *obs.Timer
}

// NewRouter builds a Router over the configured shards.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	rt := &Router{
		cfg:    cfg,
		clock:  cfg.Clock,
		reg:    cfg.Obs,
		tracer: cfg.Tracer,
		client: cfg.Client,
		ring:   NewRing(len(cfg.Shards)),
		health: newHealthState(len(cfg.Shards)),
		lat:    newLatencyWindow(),
	}
	rt.instrument()
	rt.routes()
	return rt, nil
}

func (rt *Router) instrument() {
	r := rt.reg
	rt.mEvalRequests = r.Counter("cluster.eval.requests")
	rt.mSearchRequests = r.Counter("cluster.search.requests")
	rt.mSlackRequests = r.Counter("cluster.slack.requests")
	rt.mHedgesFired = r.Counter("cluster.hedges.fired")
	rt.mHedgesWon = r.Counter("cluster.hedges.won")
	rt.mFailovers = r.Counter("cluster.failovers")
	rt.mExchangeRounds = r.Counter("cluster.exchange.rounds")
	rt.mNoReplica = r.Counter("cluster.no_replica")
	rt.mRefused = r.Counter("cluster.refused")
	rt.mRoutes = make([]*obs.Counter, len(rt.cfg.Shards))
	for i := range rt.mRoutes {
		rt.mRoutes[i] = r.Counter(fmt.Sprintf("cluster.routes.shard%d", i))
	}
	rt.mForwardLatency = r.Timer("cluster.forward.latency_seconds")
}

func (rt *Router) routes() {
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /debug/traces", rt.handleTraces)
	rt.mux.HandleFunc("POST /v1/probe", rt.handleProbe)
	rt.mux.HandleFunc("POST /v1/eval", rt.handleForward("/v1/eval", func() { rt.mEvalRequests.Inc() }))
	rt.mux.HandleFunc("/v1/slack", rt.handleForward("/v1/slack", func() { rt.mSlackRequests.Inc() }))
	rt.mux.HandleFunc("POST /v1/search", rt.handleSearch)
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Shards returns the configured shard addresses in ring order.
func (rt *Router) Shards() []string { return rt.cfg.Shards }

// Drain flips the router into refusing new work with 503; in-flight
// forwards finish under the http.Server's shutdown grace.
func (rt *Router) Drain() { rt.draining.Store(true) }

// Draining reports whether Drain has been called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// plan computes the routing plan for key: the ring's replica set split
// into the try-order (healthy replicas first, in rank order, then
// down-marked ones as a last resort — a marked-down shard may have
// recovered, and trying it beats refusing the request) plus the true
// primary for failover accounting.
func (rt *Router) plan(key uint64) (cands []int, primary int) {
	owners := rt.ring.Owners(key, rt.cfg.Replicas)
	primary = owners[0]
	cands = make([]int, 0, len(owners))
	for _, s := range owners {
		if rt.health.healthy(s) {
			cands = append(cands, s)
		}
	}
	for _, s := range owners {
		if !rt.health.healthy(s) {
			cands = append(cands, s)
		}
	}
	return cands, primary
}

// readBody slurps a request body of at most serve.MaxBodyBytes.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
}

// writeJSONError writes a refusal the router authors itself in mapd's
// error layout, so a client parses one shape whoever refused.
func writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// seal finishes the trace before the body is written, matching the
// serving layer's ordering contract: a sequential driver observes
// completed traces in exact request order.
func seal(tr *tracing.Request, outcome string) {
	if outcome != "" {
		tr.SetOutcome(outcome)
	}
	tr.Stage("respond")
	tr.Finish()
}

// routed is a request body with its routing plan.
type routed struct {
	body    []byte
	cands   []int
	primary int
	// unroutable marks a body serve.RouteKey refused; it is planned
	// under key 0.
	unroutable bool
}

// admit is the prologue every routed request shares: refuse while
// draining, read the body, and plan its replicas by content. A body
// RouteKey refuses still goes to a shard, under key 0: the shard's
// refusal is the one a single mapd gives, so the answer does not depend
// on the fleet. ok=false means admit has already answered.
func (rt *Router) admit(tr *tracing.Request, w http.ResponseWriter, r *http.Request) (in routed, ok bool) {
	if rt.Draining() {
		rt.mRefused.Inc()
		seal(tr, "rejected")
		writeJSONError(w, http.StatusServiceUnavailable, "router is draining")
		return routed{}, false
	}
	body, err := rt.readBody(w, r)
	if err != nil {
		seal(tr, "error")
		writeJSONError(w, http.StatusBadRequest, "decode request: %v", err)
		return routed{}, false
	}
	tr.Stage("route")
	key, err := serve.RouteKey(body)
	if err != nil {
		tr.Annotate("route.unroutable", "true")
	}
	cands, primary := rt.plan(key)
	tr.Annotate("route.key", strconv.FormatUint(key, 16))
	tr.Annotate("route.primary", strconv.Itoa(primary))
	return routed{body: body, cands: cands, primary: primary, unroutable: err != nil}, true
}

// relay forwards the body whole to path on its replicas, with failover
// (and hedging when hedge is set), and passes the winning shard's answer
// through verbatim plus X-Cluster-* attribution headers.
func (rt *Router) relay(ctx context.Context, tr *tracing.Request, w http.ResponseWriter, r *http.Request, path string, in routed, hedge bool) {
	tr.Stage("forward")
	res, ok := rt.forward(ctx, path, in.body, forwardOptions{
		cands:    in.cands,
		traceID:  tr.TraceID(),
		hedge:    hedge,
		deadline: r.Header.Get("X-Deadline-Ms"),
	})
	if !ok {
		rt.mNoReplica.Inc()
		tr.Annotate("route.exhausted", strconv.Itoa(len(in.cands)))
		seal(tr, "error")
		writeJSONError(w, http.StatusBadGateway, "no replica could serve the request (%d tried)", len(in.cands))
		return
	}
	rt.accountServed(tr, res, in.primary)
	copyShardResponse(w, res, in.primary)
}

// handleForward serves the single-shard endpoints (/v1/eval, /v1/slack):
// route by content, then relay with failover and hedging.
func (rt *Router) handleForward(path string, count func()) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		count()
		rctx, tr := rt.tracer.StartRequest(r.Context(), "cluster"+path, "decode")
		defer tr.Finish()
		in, ok := rt.admit(tr, w, r)
		if !ok {
			return
		}
		rt.relay(rctx, tr, w, r, path, in, true)
	}
}

// accountServed updates attribution metrics for a winning forward.
func (rt *Router) accountServed(tr *tracing.Request, res attemptResult, primary int) {
	rt.mRoutes[res.shard].Inc()
	tr.Annotate("served_by", strconv.Itoa(res.shard))
	if res.hedged {
		rt.mHedgesWon.Inc()
		tr.Annotate("hedge.won", "true")
	} else if res.shard != primary {
		// Served by a replica for a liveness reason (primary failed or
		// was down-marked), not because a hedge raced it.
		rt.mFailovers.Inc()
		tr.Annotate("failover", "true")
	}
	seal(tr, "")
}

// copyShardResponse relays the shard's answer: status, the headers that
// matter (content type, backpressure), body verbatim, plus attribution.
func copyShardResponse(w http.ResponseWriter, res attemptResult, primary int) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Cluster-Shard", strconv.Itoa(res.shard))
	w.Header().Set("X-Cluster-Primary", strconv.Itoa(primary))
	if res.hedged {
		w.Header().Set("X-Cluster-Hedged", "true")
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// routerHealthz is the router's own health document: its lifecycle state
// plus the per-shard routability view the prober maintains.
type routerHealthz struct {
	Status   string        `json:"status"`
	State    string        `json:"state"`
	Replicas int           `json:"replicas"`
	Shards   []shardStatus `json:"shards"`
}

type shardStatus struct {
	Index  int    `json:"index"`
	Addr   string `json:"addr"`
	Up     bool   `json:"up"`
	Reason string `json:"reason,omitempty"`
}

func (rt *Router) healthzBody() routerHealthz {
	up, reason := rt.health.snapshot()
	resp := routerHealthz{
		Status:   "ok",
		State:    "ready",
		Replicas: rt.cfg.Replicas,
		Shards:   make([]shardStatus, len(rt.cfg.Shards)),
	}
	if rt.Draining() {
		resp.Status = "draining"
		resp.State = "draining"
	}
	for i, addr := range rt.cfg.Shards {
		resp.Shards[i] = shardStatus{Index: i, Addr: addr, Up: up[i], Reason: reason[i]}
	}
	return resp
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	if rt.Draining() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rt.healthzBody())
}

// handleProbe forces an immediate health probe of every shard — the
// deterministic drills' alternative to waiting out a probe interval —
// and returns the refreshed health document.
func (rt *Router) handleProbe(w http.ResponseWriter, r *http.Request) {
	rt.ProbeOnce(r.Context())
	writeJSON(w, http.StatusOK, rt.healthzBody())
}

// handleTraces serves the router's flight recorder, like the shard
// endpoint: JSON by default, Chrome rendering with ?format=chrome.
func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = rt.tracer.WriteChrome(w)
		return
	}
	rt.tracer.Handler().ServeHTTP(w, r)
}
