// Search admission: a small fixed pool of search slots, a bounded
// registry of best-so-far results keyed by the full search request, and
// optional disk checkpoints. A search request that finds no free slot is
// not queued (searches are seconds of work, not microseconds — queueing
// them would just convert overload into latency); it either degrades to
// a stored best-so-far answer for the same request or is refused with
// 429. A deadline-bounded search returns its best-so-far mapping marked
// partial, records it for future degraded answers, and — when a
// checkpoint directory is configured — leaves a checkpoint an identical
// later request resumes from, so clients can ratchet a long search
// forward one deadline at a time. Searches neither read nor write the
// mapping atlas: everything a search remembers is keyed by its full
// request, so its answer does not depend on what the server priced
// before it.
package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/bounded"
	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/obs/tracing"
)

// maxGraphs and maxSearchResults bound the materialized-graph and
// best-so-far registries. Both evict their oldest key; eviction only
// forgets a graph or a degraded-answer source, never corrupts one.
const (
	maxGraphs        = 64
	maxSearchResults = 256
)

// searchKey identifies one search request exactly: same key, same
// deterministic search. It doubles as the checkpoint identity.
func searchKey(gfp uint64, tgt fm.Target, req *SearchRequest) string {
	return fmt.Sprintf("%x|%+v|%s|%s|%d|%d|%d|%d|%d",
		gfp, tgt, req.Kind, req.Objective, req.Iters, req.Chains, req.Seed, req.P, req.MaxTau)
}

// searchRegistry hands out the bounded search slots and remembers the
// best response produced so far for each search key.
type searchRegistry struct {
	mu      sync.Mutex
	slots   int
	running int
	wg      sync.WaitGroup
	results *bounded.Map[string, SearchResponse] // guarded by mu
}

func newSearchRegistry(slots int) *searchRegistry {
	return &searchRegistry{slots: slots, results: bounded.New[string, SearchResponse](maxSearchResults)}
}

// acquire claims a search slot; false means the server is at capacity.
func (r *searchRegistry) acquire() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running >= r.slots {
		return false
	}
	r.running++
	r.wg.Add(1)
	return true
}

func (r *searchRegistry) release() {
	r.mu.Lock()
	r.running--
	r.mu.Unlock()
	r.wg.Done()
}

// lookup returns the stored best-so-far response for key, if any.
func (r *searchRegistry) lookup(key string) (SearchResponse, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.results.Get(key)
}

// store records the best response so far for key. A complete result
// never regresses to a partial one.
func (r *searchRegistry) store(key string, resp SearchResponse) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.results.Get(key); ok && !prev.Partial && resp.Partial {
		return
	}
	r.results.Put(key, resp)
}

// wait blocks until every running search has finished — drain support.
func (r *searchRegistry) wait() { r.wg.Wait() }

// runningCount reports the searches currently holding slots.
func (r *searchRegistry) runningCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running
}

// checkpointPath maps a search key to its checkpoint file; empty when
// checkpointing is off.
func (s *Server) checkpointPath(key string) string {
	if s.cfg.CheckpointDir == "" {
		return ""
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("anneal-%016x.json", h.Sum64()))
}

// runAnneal executes one annealing search under the caller's context
// (already bounded by the request deadline and the server's drain
// context). It returns the response plus the context error, if the
// search was cut short.
func (s *Server) runAnneal(ctx context.Context, g *fm.Graph, gfp uint64, tgt fm.Target, req *SearchRequest, key string) (SearchResponse, error) {
	iters := req.Iters
	if iters == 0 {
		iters = 2000
	}
	chains := req.Chains
	if chains == 0 {
		chains = 2
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	obj := objectives[req.Objective]

	opts := search.AnnealOptions{
		Iters:     iters,
		Chains:    chains,
		Seed:      seed,
		Objective: obj,
		Cache:     s.cache,
		Pool:      s.pool,
		Context:   ctx,
		Obs:       s.reg,
	}
	rt := tracing.FromContext(ctx)
	rt.Stage("checkpoint")
	var done int
	// Each OnProgress call is one exchange barrier: the anneal's chains
	// have synchronized, checkpointed (when configured), and checked the
	// context. Marking them puts the search's internal cadence on the
	// request timeline.
	opts.OnProgress = func(p search.Progress) {
		done = p.Done
		rt.Mark("anneal.barrier")
	}
	rt.Annotate("resume", "false")
	if path := s.checkpointPath(key); path != "" {
		opts.CheckpointPath = path
		if _, err := os.Stat(path); err == nil {
			opts.Resume = true
			rt.Annotate("resume", "true")
		}
	}

	rt.Stage("anneal")
	_, cost, err := search.AnnealResumable(g, tgt, opts)
	if err != nil && !errIsCtx(err) {
		return SearchResponse{}, err
	}
	if done == 0 && err == nil {
		done = iters
	}
	resp := SearchResponse{
		GraphFP: formatGraphFP(gfp),
		Best: SearchBest{
			Objective:  obj.Value(cost),
			Cost:       cost,
			PlacesUsed: cost.PlacesUsed,
		},
		DoneIters:  done,
		TotalIters: iters,
		Partial:    err != nil,
	}
	s.searches.store(key, resp)
	return resp, nil
}

// runExhaustive executes one affine sweep under the caller's context
// (request deadline plus the server's drain context). Once the context
// expires, unpriced tuples are skipped and the response carries the
// best of what was evaluated before the cut, marked Partial. All sweep
// parameters are validated here — client input must never reach the
// argument-contract panics inside search.Exhaustive2D.
func (s *Server) runExhaustive(ctx context.Context, g *fm.Graph, dom *fm.Domain, gfp uint64, tgt fm.Target, req *SearchRequest, key string) (SearchResponse, error) {
	if dom == nil || len(dom.Dims()) != 2 {
		return SearchResponse{}, fmt.Errorf("exhaustive search needs a 2-D recurrence domain")
	}
	if req.P < 0 || req.P > tgt.Grid.Width {
		return SearchResponse{}, fmt.Errorf("p %d outside 1..%d (grid width; 0 selects the width)", req.P, tgt.Grid.Width)
	}
	if req.MaxTau < 0 || req.MaxTau > maxSweepTau {
		return SearchResponse{}, fmt.Errorf("max_tau %d outside 0..%d", req.MaxTau, maxSweepTau)
	}
	obj := objectives[req.Objective]
	p := req.P
	if p == 0 {
		p = tgt.Grid.Width
	}
	rt := tracing.FromContext(ctx)
	rt.Stage("sweep")
	cands := search.Exhaustive2D(g, dom, tgt, search.Affine2DOptions{
		P:       p,
		MaxTau:  req.MaxTau,
		Cache:   s.cache,
		Pool:    s.pool,
		Obs:     s.reg,
		Context: ctx,
	})
	best, ok := search.BestChecked(cands, obj)
	if !ok {
		return SearchResponse{}, fmt.Errorf("affine sweep produced no legal candidate")
	}
	resp := SearchResponse{
		GraphFP: formatGraphFP(gfp),
		Best: SearchBest{
			Objective:  obj.Value(best.Cost),
			Cost:       best.Cost,
			PlacesUsed: best.Cost.PlacesUsed,
		},
		DoneIters:  len(cands),
		TotalIters: len(cands),
		// A cut-short sweep reports the candidates it managed to price;
		// Partial tells the client the sweep did not run to completion.
		Partial: ctx.Err() != nil,
	}
	s.searches.store(key, resp)
	return resp, nil
}
