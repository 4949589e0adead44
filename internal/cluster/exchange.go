// Scatter-gather search: the in-process annealer's exchange barrier,
// generalized across processes. The router fans one valid /v1/search
// anneal over the key's replica set as a sequence of rounds; in each round
// every participating shard runs an independent slice of the iteration
// budget (seeded by its global shard index and the round number, so no
// two slices share an RNG stream), and between rounds the router is the
// barrier: it elects the global best — LOWEST OBJECTIVE VALUE, ties
// broken by LOWEST SHARD INDEX — and hands the winning schedule to
// every shard as the next round's starting point.
//
// Determinism argument, by induction over rounds: round 0's slices are
// pure functions of (request, shard index); the winner rule is a pure
// function of the slice answers; round r+1's slices are pure functions
// of (request, shard index, round-r winner). A slice's best never
// regresses below its starting point (the annealer's best starts at the
// init), so the final round's winner is the global best. Therefore two
// same-seed runs against same-shaped fleets answer byte-identically —
// as long as the participant set is stable. A shard dying mid-search
// changes the participant set (the router drops it and finishes the
// search on the survivors — availability over reproducibility); the
// kill drills exercise eval traffic for exactness and keep search
// drills on healthy fleets.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/serve"
)

// defaultSearchIters mirrors the shard's anneal default: the router
// must pin the total before slicing it into rounds.
const defaultSearchIters = 2000

// searchClusterInfo is the cluster-level addendum to a search response.
type searchClusterInfo struct {
	// Rounds is the number of exchange barriers the search ran.
	Rounds int `json:"rounds"`
	// Replicas is the participant set (global shard indices, rank order).
	Replicas []int `json:"replicas"`
	// WinnerShard is the shard whose slice produced the final best.
	WinnerShard int `json:"winner_shard"`
}

// clusterSearchResponse is a shard SearchResponse plus attribution.
type clusterSearchResponse struct {
	serve.SearchResponse
	Cluster searchClusterInfo `json:"cluster"`
}

// handleSearch scatters a valid anneal over the key's replica set and
// relays every other search whole to /v1/search on one replica: a sweep,
// which is already deterministic on any single shard, and any body mapd
// would refuse. A search is refused in one place, mapd's own validator,
// so the router's answer to a malformed search is a single mapd's, byte
// for byte. Relayed searches are not hedged: a sweep outlives a hedge
// delay drawn from millisecond evals, and a hedge would only price it on
// a second replica.
func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	rt.mSearchRequests.Inc()
	rctx, tr := rt.tracer.StartRequest(r.Context(), "cluster/v1/search", "decode")
	defer tr.Finish()
	in, ok := rt.admit(tr, w, r)
	if !ok {
		return
	}
	req, ok := scatterable(in)
	if !ok {
		rt.relay(rctx, tr, w, r, "/v1/search", in, false)
		return
	}
	rt.scatterGather(rctx, tr, w, req, in.cands, in.primary, r.Header.Get("X-Deadline-Ms"))
}

// scatterable decodes a routable body as an anneal that passes mapd's own
// strict decode and Validate: the only search the router fans out, since
// the exchange protocol re-marshals the request and must not launder a
// body mapd would refuse.
func scatterable(in routed) (*serve.SearchRequest, bool) {
	if in.unroutable {
		return nil, false
	}
	var req serve.SearchRequest
	dec := json.NewDecoder(bytes.NewReader(in.body))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil || dec.More() || req.Validate() != nil || req.Kind == "exhaustive" {
		return nil, false
	}
	return &req, true
}

// sliceOutcome is one shard's answer to one round.
type sliceOutcome struct {
	raw  attemptResult
	resp serve.ExchangeResponse
	ok   bool
}

// scatterGather runs the exchange rounds. The client's X-Deadline-Ms
// bounds the whole scatter: each round's slices carry the time left of
// it, rounded up to a whole millisecond. A header that is not a positive
// integer is relayed verbatim, so every slice refuses it as a single
// mapd would.
func (rt *Router) scatterGather(ctx context.Context, tr *tracing.Request, w http.ResponseWriter, req *serve.SearchRequest, cands []int, primary int, deadline string) {
	// Participants: the healthy replica set in rank order; if the prober
	// has everything down-marked, try the full set rather than refusing.
	parts := cands[:0:0]
	for _, s := range cands {
		if rt.health.healthy(s) {
			parts = append(parts, s)
		}
	}
	if len(parts) == 0 {
		parts = cands
	}
	roster := append([]int(nil), parts...)

	total := req.Iters
	if total == 0 {
		total = defaultSearchIters
	}
	rounds := rt.cfg.ExchangeRounds
	if rounds > total {
		rounds = total
	}
	base, rem := total/rounds, total%rounds
	var end time.Time
	if ms, err := strconv.ParseInt(deadline, 10, 64); err == nil && ms > 0 {
		end = rt.clock.Now().Add(time.Duration(ms) * time.Millisecond)
	}

	tr.Stage("exchange")
	var best *serve.ExchangeResponse
	winnerShard := -1
	for round := 0; round < rounds; round++ {
		rt.mExchangeRounds.Inc()
		tr.Mark("exchange.round")
		sliceIters := base
		if round < rem {
			sliceIters++
		}
		if !end.IsZero() {
			left := max(end.Sub(rt.clock.Now()), time.Millisecond)
			deadline = strconv.FormatInt(int64((left+time.Millisecond-1)/time.Millisecond), 10)
		}
		outs := rt.runRound(ctx, tr, req, parts, round, rounds, sliceIters, best, deadline)

		// Process in roster order so health marks, drops, and the winner
		// election are deterministic functions of the round's answers.
		alive := parts[:0:0]
		for i, shard := range parts {
			out := outs[i]
			if out.raw.failed() {
				rt.health.markDown(shard, failureReason(out.raw))
				tr.Annotate("exchange.dropped", strconv.Itoa(shard))
				continue
			}
			if out.raw.status != http.StatusOK {
				// A 4xx slice verdict is about the REQUEST, identical on
				// every shard, and a 504 is the client's own deadline
				// expiring, which says nothing about the shard: relay the
				// first one, counted as that shard's route, and stop the
				// search.
				rt.mRoutes[shard].Inc()
				tr.Annotate("served_by", strconv.Itoa(shard))
				seal(tr, "error")
				copyShardResponse(w, out.raw, primary)
				return
			}
			if !out.ok {
				rt.health.markDown(shard, "bad exchange response")
				continue
			}
			alive = append(alive, shard)
			if best == nil || out.resp.Best.Objective < best.Best.Objective ||
				(out.resp.Best.Objective == best.Best.Objective && shard < winnerShard) {
				r := out.resp
				best, winnerShard = &r, shard
			}
		}
		if len(alive) == 0 {
			rt.mNoReplica.Inc()
			seal(tr, "error")
			writeJSONError(w, http.StatusBadGateway, "search round %d: no replica answered", round)
			return
		}
		parts = alive
	}

	rt.mRoutes[winnerShard].Inc()
	tr.Annotate("served_by", strconv.Itoa(winnerShard))
	tr.Annotate("exchange.rounds", strconv.Itoa(rounds))
	seal(tr, "")
	w.Header().Set("X-Cluster-Shard", strconv.Itoa(winnerShard))
	w.Header().Set("X-Cluster-Primary", strconv.Itoa(primary))
	writeJSON(w, http.StatusOK, clusterSearchResponse{
		SearchResponse: serve.SearchResponse{
			GraphFP:    best.GraphFP,
			Best:       best.Best,
			DoneIters:  total,
			TotalIters: total,
		},
		Cluster: searchClusterInfo{Rounds: rounds, Replicas: roster, WinnerShard: winnerShard},
	})
}

// runRound fans one round's slices out concurrently and collects the
// outcomes index-aligned with parts. The barrier is the WaitGroup: the
// round is not judged until every slice has answered or failed.
func (rt *Router) runRound(ctx context.Context, tr *tracing.Request, req *serve.SearchRequest, parts []int, round, rounds, sliceIters int, best *serve.ExchangeResponse, deadline string) []sliceOutcome {
	outs := make([]sliceOutcome, len(parts))
	var wg sync.WaitGroup
	for i, shard := range parts {
		slice := *req
		slice.Iters = sliceIters
		ereq := serve.ExchangeRequest{Search: slice, Shard: shard, Round: round, Rounds: rounds}
		if best != nil {
			ereq.Init = best.Schedule
		}
		ebody, err := json.Marshal(ereq)
		if err != nil {
			outs[i] = sliceOutcome{raw: attemptResult{shard: shard, err: err}}
			continue
		}
		wg.Add(1)
		go func(i, shard int, ebody []byte) {
			defer wg.Done()
			ch := make(chan attemptResult, 1)
			rt.attempt(ctx, shard, "/v1/exchange", ebody, forwardOptions{traceID: tr.TraceID(), deadline: deadline}, false, ch)
			out := sliceOutcome{raw: <-ch}
			if out.raw.err == nil && out.raw.status == http.StatusOK {
				out.ok = json.Unmarshal(out.raw.body, &out.resp) == nil
			}
			outs[i] = out
		}(i, shard, ebody)
	}
	wg.Wait()
	return outs
}
