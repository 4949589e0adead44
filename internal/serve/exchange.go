// The shard side of the cluster's scatter-gather search: /v1/exchange
// runs one deterministic annealing slice and returns the full winning
// schedule, so the router can arbitrate a cross-process exchange barrier
// exactly the way the in-process annealer arbitrates its chains. Three
// properties make same-seed cluster searches byte-reproducible:
//
//  1. the slice's RNG streams derive from (seed, shard rank, round), so
//     no two shards or rounds overlap;
//  2. the slice starts from the request's Init mapping (ASAP-repaired),
//     never from local mutable state — it neither reads nor writes the
//     atlas, so a shard's private history cannot leak into the answer;
//  3. the response carries the complete schedule, making the router's
//     winner election a pure function of the round's responses.
package serve

import (
	"fmt"
	"net/http"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/geom"
)

// Seed strides between shard ranks and rounds. Large odd constants keep
// the per-chain seeds (seed + shard*stride + round*stride' + chain)
// disjoint for every legal shard count, round count, and chain count.
const (
	exchangeShardStride = 1_000_003
	exchangeRoundStride = 7_919
)

// exchangeSeed is the slice seed for one (search seed, shard, round).
func exchangeSeed(seed int64, shard, round int) int64 {
	return seed + int64(shard)*exchangeShardStride + int64(round)*exchangeRoundStride
}

// buildInit converts a wire Init into a schedule for g, validating that
// every placement lands on the target grid. Times are carried for
// fidelity but the annealer re-derives them by ASAP.
func buildInit(specs []AssignmentSpec, g *fm.Graph, tgt fm.Target) (fm.Schedule, error) {
	if len(specs) != g.NumNodes() {
		return nil, fmt.Errorf("init covers %d nodes, graph has %d", len(specs), g.NumNodes())
	}
	sched := make(fm.Schedule, len(specs))
	for i, a := range specs {
		if a.X < 0 || a.X >= tgt.Grid.Width || a.Y < 0 || a.Y >= tgt.Grid.Height {
			return nil, fmt.Errorf("init node %d placed at (%d,%d), off the %dx%d grid",
				i, a.X, a.Y, tgt.Grid.Width, tgt.Grid.Height)
		}
		sched[i] = fm.Assignment{Place: geom.Pt(a.X, a.Y), Time: a.T}
	}
	return sched, nil
}

func (s *Server) handleExchange(w http.ResponseWriter, r *http.Request) {
	s.mExchangeRequests.Inc()
	rctx, rt := s.tracer.StartRequest(r.Context(), "/v1/exchange", "decode")
	defer rt.Finish()
	bindClusterTrace(rt, r)
	if s.Draining() {
		rt.Annotate("admission.reason", "draining")
		respondErr(rt, "rejected", w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req ExchangeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		respondErr(rt, "error", w, http.StatusBadRequest, "%v", err)
		return
	}
	sr := &req.Search
	if err := sr.Validate(); err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if sr.Kind == "exhaustive" {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "exchange runs anneal slices, not %q", sr.Kind)
		return
	}
	if sr.Iters == 0 {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "iters %d outside 1..%d", sr.Iters, maxSearchIters)
		return
	}
	if req.Shard < 0 || req.Shard >= maxExchangeShards {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "shard %d outside 0..%d", req.Shard, maxExchangeShards-1)
		return
	}
	if req.Rounds < 1 || req.Rounds > maxExchangeRounds || req.Round < 0 || req.Round >= req.Rounds {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "round %d/%d outside the 1..%d protocol", req.Round, req.Rounds, maxExchangeRounds)
		return
	}
	g, _, gfp, status, err := s.resolveGraph(sr.Recurrence, sr.GraphFP)
	if err != nil {
		respondErr(rt, "error", w, status, "%v", err)
		return
	}
	tgt, err := sr.Target.target()
	if err != nil {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	var init fm.Schedule
	if req.Init != nil {
		if init, err = buildInit(req.Init, g, tgt); err != nil {
			respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
	}
	ctx, cancel, err := s.deadlineFor(rctx, r, sr.DeadlineMS)
	if err != nil {
		respondErr(rt, "error", w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()

	rt.Stage("admission")
	rt.Annotate("exchange.shard", fmt.Sprintf("%d", req.Shard))
	rt.Annotate("exchange.round", fmt.Sprintf("%d/%d", req.Round, req.Rounds))
	// Shed/pause refuse outright: an exchange slice has no stored result
	// to degrade to (each (shard, round) runs once), and the router's
	// failover already routes around a shedding shard.
	if s.Mode() != ModeServe {
		s.mExchangeRejected.Inc()
		rt.Annotate("admission.reason", "shedding")
		w.Header().Set("Retry-After", "1")
		respondErr(rt, "rejected", w, http.StatusTooManyRequests, "exchange admission is shedding; retry later")
		return
	}
	if !s.searches.acquire() {
		s.mExchangeRejected.Inc()
		rt.Annotate("admission.reason", "slots busy")
		w.Header().Set("Retry-After", "1")
		respondErr(rt, "rejected", w, http.StatusTooManyRequests, "all %d search slots busy; retry later", s.cfg.MaxSearches)
		return
	}
	defer s.searches.release()

	chains := sr.Chains
	if chains == 0 {
		chains = 2
	}
	seed := sr.Seed
	if seed == 0 {
		seed = 1
	}
	obj := objectives[sr.Objective]
	opts := search.AnnealOptions{
		Iters:        sr.Iters,
		Chains:       chains,
		Seed:         exchangeSeed(seed, req.Shard, req.Round),
		Objective:    obj,
		InitSchedule: init,
		Cache:        s.cache,
		Pool:         s.pool,
		Context:      ctx,
		Obs:          s.reg,
	}
	var done int
	opts.OnProgress = func(p search.Progress) {
		done = p.Done
		rt.Mark("anneal.barrier")
	}
	rt.Stage("anneal")
	sched, cost, err := search.AnnealResumable(g, tgt, opts)
	if err != nil && !errIsCtx(err) {
		respondErr(rt, "error", w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if err != nil {
		// A cut-short slice would poison the round's determinism — the
		// router must treat it like a failed shard, not adopt a partial
		// answer, so the cut is an error here rather than a Partial flag.
		s.writeEvalError(rt, w, err, "during exchange round")
		return
	}
	if done == 0 {
		done = sr.Iters
	}
	wire := make([]AssignmentSpec, len(sched))
	for i, a := range sched {
		wire[i] = AssignmentSpec{X: a.Place.X, Y: a.Place.Y, T: a.Time}
	}
	s.mExchangeOK.Inc()
	respond(rt, w, http.StatusOK, ExchangeResponse{
		GraphFP:   formatGraphFP(gfp),
		Best:      SearchBest{Objective: obj.Value(cost), Cost: cost, PlacesUsed: cost.PlacesUsed},
		Schedule:  wire,
		DoneIters: done,
		Round:     req.Round,
	})
}
