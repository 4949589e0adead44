// HTTP handlers. Each one is a thin translation layer: decode and
// validate on the request goroutine, push real work through the
// admission machinery (queue, search slots), translate the outcome back
// to a status code. The admission policy lives here and is deliberately
// explicit per mode:
//
//	serve — enqueue first; a full queue falls back to a cache-only
//	        answer, and only when the cache cannot answer either does the
//	        client see 429 + Retry-After.
//	shed  — cache first (degrade eagerly to shed evaluation load);
//	        uncached work still queues and drains.
//	pause — like shed, but the drain workers are parked, so uncached
//	        admissions fill the queue without being processed: the
//	        deterministic overload drill.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/fm"
	"repro/internal/obs/tracing"
)

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/exchange", s.handleExchange)
	// Slack analysis carries a JSON body; both GET (as documented) and
	// POST (for clients whose HTTP stacks refuse GET bodies) are served.
	s.mux.HandleFunc("/v1/slack", s.handleSlack)
	s.mux.HandleFunc("POST /v1/admission", s.handleAdmission)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// respond seals the request trace, then writes the response. Finishing
// BEFORE the body goes out means the trace is committed to the ring
// before the client can observe the answer, so a sequential driver sees
// completed traces in exact request order — the property that makes two
// same-seed drills export byte-identical /debug/traces documents. The
// deferred Finish in each handler stays as an idempotent backstop for
// paths that bypass these helpers.
func respond(rt *tracing.Request, w http.ResponseWriter, status int, v any) {
	rt.Stage("respond")
	rt.Finish()
	writeJSON(w, status, v)
}

// respondErr is respond for failures: it stamps the outcome (rejected,
// deadline, canceled, error, ...) before sealing the trace.
func respondErr(rt *tracing.Request, outcome string, w http.ResponseWriter, status int, format string, args ...any) {
	rt.SetOutcome(outcome)
	rt.Stage("respond")
	rt.Finish()
	writeError(w, status, format, args...)
}

// bindClusterTrace links this request's trace to the cluster router's:
// when a maprouter forwarded the request it stamps its own trace ID in
// X-Cluster-Trace-Id, and annotating it here lets an operator walk from
// a router span to the shard trace that served it (and back — the
// router annotates the shard's address on its side).
func bindClusterTrace(rt *tracing.Request, r *http.Request) {
	if id := r.Header.Get("X-Cluster-Trace-Id"); id != "" {
		rt.Annotate("cluster.trace_id", id)
	}
}

// rejectEval answers 429 with the server's Retry-After estimate.
func (s *Server) rejectEval(rt *tracing.Request, w http.ResponseWriter) {
	s.mEvalRejected.Inc()
	rt.Annotate("admission.reason", "queue full")
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	respondErr(rt, "rejected", w, http.StatusTooManyRequests, "eval queue full; retry later")
}

// writeEvalError translates an evaluation failure honestly: an expired
// deadline is the client's 504; a cancellation (the client disconnected,
// so the request context — not any deadline — died) is a 503, because
// "deadline exceeded" would misattribute a failure no deadline caused;
// anything else is a server error.
func (s *Server) writeEvalError(rt *tracing.Request, w http.ResponseWriter, err error, where string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.mEvalDeadline.Inc()
		respondErr(rt, "deadline", w, http.StatusGatewayTimeout, "deadline exceeded %s", where)
	case errors.Is(err, context.Canceled):
		respondErr(rt, "canceled", w, http.StatusServiceUnavailable, "request canceled %s", where)
	default:
		respondErr(rt, "error", w, http.StatusInternalServerError, "%v", err)
	}
}

// resolveGraph finds the request's graph: inline recurrence, or
// fingerprint lookup against graphs this server materialized earlier.
// An inline recurrence is fingerprinted without being built, and the
// registered graph is reused when its domain has the request's extents
// (two recurrences can share a graph but not a domain, and the
// antidiagonal and affine mappings read the domain). Only a miss or a
// domain mismatch materializes; the result is registered so the client
// can switch to fingerprint-only requests. The returned status is the
// HTTP status to serve when err is non-nil.
func (s *Server) resolveGraph(rec *RecurrenceSpec, fpHex string) (g *fm.Graph, dom *fm.Domain, gfp uint64, status int, err error) {
	switch {
	case rec != nil:
		var r fm.Recurrence
		if r, gfp, err = rec.fingerprint(); err != nil {
			return nil, nil, 0, http.StatusUnprocessableEntity, err
		}
		if e, ok := s.graphs.lookup(gfp); ok && slices.Equal(e.dom.Dims(), r.Dims) {
			return e.g, e.dom, gfp, 0, nil
		}
		if g, dom, err = r.Materialize(); err != nil {
			return nil, nil, 0, http.StatusUnprocessableEntity, err
		}
		s.graphs.register(gfp, &graphEntry{g: g, dom: dom})
		return g, dom, gfp, 0, nil
	case fpHex != "":
		gfp, err = parseGraphFP(fpHex)
		if err != nil {
			return nil, nil, 0, http.StatusUnprocessableEntity, err
		}
		e, ok := s.graphs.lookup(gfp)
		if !ok {
			return nil, nil, 0, http.StatusNotFound,
				fmt.Errorf("unknown graph fingerprint %s; re-send the recurrence inline", fpHex)
		}
		return e.g, e.dom, gfp, 0, nil
	default:
		return nil, nil, 0, http.StatusUnprocessableEntity,
			fmt.Errorf("request needs either recurrence or graph_fp")
	}
}

// buildSchedules materializes every requested schedule, all validated
// before anything is admitted. The request deadline is checked before
// each build, so a request whose deadline passes mid-way stops
// building; its ctx error is returned unwrapped for writeEvalError.
func buildSchedules(ctx context.Context, specs []ScheduleSpec, g *fm.Graph, dom *fm.Domain, tgt fm.Target) ([]fm.Schedule, error) {
	out := make([]fm.Schedule, 0, len(specs))
	for i := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sched, err := specs[i].build(g, dom, tgt)
		if err != nil {
			return nil, fmt.Errorf("schedule %d: %w", i, err)
		}
		out = append(out, sched)
	}
	return out, nil
}

// cacheOnly attempts a degraded cache-only answer: success only if
// every requested schedule is already priced in the cache — or in the
// persistent atlas, which backs the cache across restarts.
func (s *Server) cacheOnly(gfp uint64, tgt fm.Target, scheds []fm.Schedule) ([]fm.Cost, bool) {
	costs := make([]fm.Cost, len(scheds))
	for i, sched := range scheds {
		sfp := sched.Fingerprint()
		c, ok := s.cache.Lookup(gfp, sfp, tgt)
		if !ok {
			if c, ok = s.storeLookup(gfp, sfp, tgt); ok {
				s.cache.Put(gfp, sfp, tgt, c)
			}
		}
		if !ok {
			return nil, false
		}
		costs[i] = c
	}
	return costs, true
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.mEvalRequests.Inc()
	rctx, rt := s.tracer.StartRequest(r.Context(), "/v1/eval", "decode")
	defer rt.Finish()
	if s.Draining() {
		rt.Annotate("admission.reason", "draining")
		respondErr(rt, "rejected", w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req EvalRequest
	if err := decodeJSON(w, r, &req); err != nil {
		respondErr(rt, "error", w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.deadlineFor(rctx, r, req.DeadlineMS)
	if err != nil {
		respondErr(rt, "error", w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if len(req.Schedules) == 0 || len(req.Schedules) > maxSchedules {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "request must carry 1..%d schedules, got %d", maxSchedules, len(req.Schedules))
		return
	}
	g, dom, gfp, status, err := s.resolveGraph(req.Recurrence, req.GraphFP)
	if err != nil {
		respondErr(rt, "error", w, status, "%v", err)
		return
	}
	tgt, err := req.Target.target()
	if err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	scheds, err := buildSchedules(ctx, req.Schedules, g, dom, tgt)
	if errIsCtx(err) {
		s.writeEvalError(rt, w, err, "while building schedules")
		return
	}
	if err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}

	rt.Stage("admission")
	start := s.clock.Now()
	fpHex := formatGraphFP(gfp)
	degraded := func(costs []fm.Cost, reason string) {
		s.mEvalDegraded.Inc()
		rt.Annotate("admission.reason", reason)
		rt.SetOutcome("degraded")
		respond(rt, w, http.StatusOK, EvalResponse{GraphFP: fpHex, Costs: costs, Degraded: true})
	}

	// Admission. Shed and pause degrade first; serve evaluates first and
	// degrades only under backpressure.
	if s.Mode() != ModeServe {
		if costs, ok := s.cacheOnly(gfp, tgt, scheds); ok {
			degraded(costs, "shed: cache-only")
			return
		}
	}
	job := &evalJob{
		ctx: ctx, gfp: gfp, tgt: tgt, g: g, scheds: scheds,
		enqueued: start,
		rt:       rt,
		result:   make(chan evalResult, 1),
	}
	if !s.queue.tryEnqueue(job) {
		if costs, ok := s.cacheOnly(gfp, tgt, scheds); ok {
			degraded(costs, "queue full: cache-only")
			return
		}
		s.rejectEval(rt, w)
		return
	}
	s.mQueueDepth.Set(float64(s.queue.depth()))

	deliver := func(res evalResult) {
		if res.err != nil {
			s.writeEvalError(rt, w, res.err, "during evaluation")
			return
		}
		s.mEvalOK.Inc()
		s.mEvalLatency.Observe(s.clock.Now().Sub(start))
		respond(rt, w, http.StatusOK, EvalResponse{GraphFP: fpHex, Costs: res.costs, BatchSize: res.batch})
	}
	select {
	case res := <-job.result:
		deliver(res)
	case <-ctx.Done():
		// The worker may have delivered in the race window between the
		// result landing and this select waking; a result that exists
		// beats a timeout answer, so take one final non-blocking look.
		select {
		case res := <-job.result:
			deliver(res)
		default:
			// The job stays queued; the worker that eventually drains it
			// sees the dead context and skips the evaluation.
			s.writeEvalError(rt, w, ctx.Err(), "while queued")
		}
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.mSearchRequests.Inc()
	rctx, rt := s.tracer.StartRequest(r.Context(), "/v1/search", "decode")
	defer rt.Finish()
	if s.Draining() {
		rt.Annotate("admission.reason", "draining")
		respondErr(rt, "rejected", w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req SearchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		respondErr(rt, "error", w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := req.Validate(); err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	g, dom, gfp, status, err := s.resolveGraph(req.Recurrence, req.GraphFP)
	if err != nil {
		respondErr(rt, "error", w, status, "%v", err)
		return
	}
	tgt, err := req.Target.target()
	if err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	key := searchKey(gfp, tgt, &req)
	start := s.clock.Now()
	ctx, cancel, err := s.deadlineFor(rctx, r, req.DeadlineMS)
	if err != nil {
		respondErr(rt, "error", w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()

	rt.Stage("admission")
	degradedAnswer := func(reason string) bool {
		resp, ok := s.searches.lookup(key)
		if !ok {
			return false
		}
		resp.Degraded = true
		s.mSearchDegraded.Inc()
		rt.Annotate("admission.reason", reason)
		rt.SetOutcome("degraded")
		respond(rt, w, http.StatusOK, resp)
		return true
	}

	// Shed/pause: replay stored results only, never start new searches.
	if s.Mode() != ModeServe {
		if !degradedAnswer("shed: stored best-so-far") {
			s.mSearchRejected.Inc()
			rt.Annotate("admission.reason", "shedding, no stored result")
			w.Header().Set("Retry-After", "1")
			respondErr(rt, "rejected", w, http.StatusTooManyRequests, "search admission is shedding; retry later")
		}
		return
	}
	if !s.searches.acquire() {
		if !degradedAnswer("slots busy: stored best-so-far") {
			s.mSearchRejected.Inc()
			rt.Annotate("admission.reason", "slots busy, no stored result")
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			respondErr(rt, "rejected", w, http.StatusTooManyRequests, "all %d search slots busy; retry later", s.cfg.MaxSearches)
		}
		return
	}
	defer s.searches.release()

	// Drain cancels baseCtx; propagate that into the running search so
	// shutdown halts it at its next exchange barrier (checkpointing) or,
	// for a sweep, at its next unstarted tuple.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	var resp SearchResponse
	if req.Kind == "exhaustive" {
		resp, err = s.runExhaustive(ctx, g, dom, gfp, tgt, &req, key)
	} else {
		resp, err = s.runAnneal(ctx, g, gfp, tgt, &req, key)
	}
	if err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if resp.Partial {
		s.mSearchPartial.Inc()
		rt.Annotate("partial", "true")
	}
	s.mSearchOK.Inc()
	s.mSearchLatency.Observe(s.clock.Now().Sub(start))
	respond(rt, w, http.StatusOK, resp)
}

func (s *Server) handleSlack(w http.ResponseWriter, r *http.Request) {
	s.mSlackRequests.Inc()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	rctx, rt := s.tracer.StartRequest(r.Context(), "/v1/slack", "decode")
	defer rt.Finish()
	if s.Draining() {
		rt.Annotate("admission.reason", "draining")
		respondErr(rt, "rejected", w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req SlackRequest
	if err := decodeJSON(w, r, &req); err != nil {
		respondErr(rt, "error", w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.deadlineFor(rctx, r, 0)
	if err != nil {
		respondErr(rt, "error", w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	g, dom, gfp, status, err := s.resolveGraph(req.Recurrence, req.GraphFP)
	if err != nil {
		respondErr(rt, "error", w, status, "%v", err)
		return
	}
	tgt, err := req.Target.target()
	if err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	scheds, err := buildSchedules(ctx, []ScheduleSpec{req.Schedule}, g, dom, tgt)
	if errIsCtx(err) {
		s.writeEvalError(rt, w, err, "while building the schedule")
		return
	}
	if err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	rt.Stage("analyze")
	edges, err := fm.SlackAnalysis(g, scheds[0], tgt)
	if err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := SlackResponse{GraphFP: formatGraphFP(gfp), Summary: fm.SummarizeSlack(edges)}
	if len(edges) <= maxSlackEdges {
		resp.Edges = edges
	}
	respond(rt, w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.cache.PublishObs(s.reg)
	s.mQueueDepth.Set(float64(s.queue.depth()))
	s.reg.Handler().ServeHTTP(w, r)
}

// handleTraces serves the flight recorder: the JSON export by default,
// the Chrome trace-event rendering with ?format=chrome. Untraced itself
// (scraping must not perturb what it scrapes), and nil-safe — a server
// without a tracer serves the empty document.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = s.tracer.WriteChrome(w)
		return
	}
	s.tracer.Handler().ServeHTTP(w, r)
}

// healthzResponse is the health endpoint's payload; QueueDepth shows
// how much a paused queue has absorbed, and the cluster router's prober
// reads State to stop routing to a shard before its refusals ever reach
// a client.
type healthzResponse struct {
	Status string `json:"status"`
	// State is the readiness verdict a load balancer should act on:
	// "ready" (route here) or "draining" (stop — in-flight work finishes
	// but new requests will be refused). Liveness (Status) and readiness
	// (State) are deliberately separate fields: a draining process is
	// alive and must not be restarted, only unrouted.
	State           string `json:"state"`
	Mode            string `json:"mode"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCapacity   int    `json:"queue_capacity"`
	SearchesRunning int    `json:"searches_running"`
	Graphs          int    `json:"graphs"`
	// StoreUnhealthy surfaces a quarantined mapping atlas (recovery found
	// corruption or data loss at startup). The shard still serves — the
	// store is an accelerator, not a dependency — but a router may prefer
	// replicas whose warmth is intact.
	StoreUnhealthy bool `json:"store_unhealthy"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := healthzResponse{
		Status:          "ok",
		State:           "ready",
		Mode:            s.Mode().String(),
		QueueDepth:      s.queue.depth(),
		QueueCapacity:   s.cfg.QueueDepth,
		SearchesRunning: s.searches.runningCount(),
		Graphs:          s.graphs.len(),
		StoreUnhealthy:  s.storeUnhealthy,
	}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		resp.State = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// admissionRequest switches the admission mode at runtime (only when
// Config.AdmissionControl is set — it is an operator tool, off by
// default).
type admissionRequest struct {
	Mode string `json:"mode"`
}

func (s *Server) handleAdmission(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AdmissionControl {
		writeError(w, http.StatusForbidden, "admission control endpoint is disabled")
		return
	}
	var req admissionRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := parseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.SetMode(m)
	writeJSON(w, http.StatusOK, map[string]string{"mode": m.String()})
}
