// The micro-batching drain: workers pull admitted jobs off the bounded
// queue, coalesce the ones that share a (graph, target) key, and price
// each coalesced group as one search.EvalBatch call over the shared
// cache and pool. Batching is opportunistic, not timed — a drain takes
// whatever has accumulated, so an idle server adds no latency and a busy
// one coalesces aggressively. No clock participates in grouping, which
// keeps the coalescing fully determined by arrival order.
package serve

import (
	"context"
	"strconv"
	"time"

	"repro/internal/fm"
	"repro/internal/fm/search"
)

// batchKey is the coalescing key: jobs agreeing on both graph
// fingerprint and target price against the same cache entries, so their
// schedules can be concatenated into one batch.
type batchKey struct {
	gfp uint64
	tgt fm.Target
}

// evalWorker is one drain loop. It exits when the queue is closed and
// empty — after delivering every job admitted before the close, which is
// what "drain, don't drop" means.
func (s *Server) evalWorker() {
	defer s.workerWG.Done()
	for {
		jobs := s.queue.drainUpTo(s.cfg.BatchMax)
		if jobs == nil {
			return
		}
		s.mQueueDepth.Set(float64(s.queue.depth()))
		s.processBatch(jobs)
	}
}

// processBatch groups one drain's jobs by batchKey in first-appearance
// order and prices each group with a single EvalBatch call. Every job
// receives exactly one evalResult. The drain's metrics are recorded
// before any job is answered, so a scrape that follows a response sees
// that response's batch.
func (s *Server) processBatch(jobs []*evalJob) {
	start := s.clock.Now()
	for _, j := range jobs {
		s.mQueueWait.Observe(start.Sub(j.enqueued))
	}
	s.mBatches.Inc()
	s.mBatchJobs.Observe(float64(len(jobs)))

	groups := make(map[batchKey][]*evalJob, len(jobs))
	var order []batchKey
	for _, j := range jobs {
		k := batchKey{gfp: j.gfp, tgt: j.tgt}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], j)
	}

	for _, k := range order {
		s.priceGroup(groups[k])
	}
}

// priceGroup prices one coalesced group. Jobs whose context already
// expired while queued are answered with their context error without
// costing any evaluation; the rest share one EvalBatch call under a
// server-owned context bounded by the latest live member deadline, so
// neither an impatient client nor one that disconnects mid-batch can
// cancel work its batch-mates still want.
//
// The group gets its own detached trace (route "batch"): the batch is
// server-owned work with no single parent request, so batch-mates link
// to it by annotation — each member trace carries the batch trace's ID
// — rather than by nesting. The batch trace is finished, and the
// group's per-job service time folded into the EWMA, before any priced
// result is delivered, so traces land in the ring in a deterministic
// order: batch first, then its members as their handlers respond.
func (s *Server) priceGroup(group []*evalJob) {
	live := group[:0:0]
	for _, j := range group {
		if err := j.ctx.Err(); err != nil {
			j.result <- evalResult{err: err}
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	s.mCoalesced.Add(int64(len(live) - 1))

	scheds := make([]fm.Schedule, 0, len(live))
	offsets := make([]int, len(live)+1)
	for i, j := range live {
		scheds = append(scheds, j.scheds...)
		offsets[i+1] = offsets[i] + len(j.scheds)
	}

	bt := s.tracer.StartDetached("batch", "coalesce")
	bt.Annotate("jobs", strconv.Itoa(len(live)))
	bt.Annotate("schedules", strconv.Itoa(len(scheds)))
	for _, j := range live {
		j.rt.Stage("batch")
		j.rt.Annotate("batch_id", bt.TraceID())
		j.rt.Annotate("batch_jobs", strconv.Itoa(len(live)))
	}

	start := s.clock.Now()
	first := live[0]
	// Warm the cache from the persistent atlas so EvalBatch prices only
	// mappings this process has never seen on disk or in memory.
	bt.Stage("store_warm")
	s.warmFromStore(first.gfp, first.tgt, scheds)
	ctx, cancel := batchCtx(live)
	defer cancel()
	bt.Stage("eval")
	costs, err := search.EvalBatch(ctx, s.pool, s.cache, first.g, first.gfp, scheds, first.tgt)
	bt.Stage("store_persist")
	if err == nil {
		s.storePutAll(first.gfp, first.tgt, scheds, costs)
	} else {
		bt.SetOutcome("error")
	}
	bt.Finish()
	s.observeBatch(len(live), s.clock.Now().Sub(start))
	for i, j := range live {
		if err != nil {
			j.result <- evalResult{err: err}
			continue
		}
		j.result <- evalResult{costs: costs[offsets[i]:offsets[i+1]], batch: len(live)}
	}
}

// batchCtx derives the context one coalesced batch evaluates under. It
// is server-owned — detached from every member's request context, so a
// client disconnecting mid-batch cannot cancel work its batch-mates
// still want — and bounded by the latest member deadline (unbounded if
// any member carries none), so the server stops pricing once no waiter
// could still use the answer. Members that time out earlier simply stop
// waiting; their own handler enforces their deadline.
func batchCtx(live []*evalJob) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, j := range live {
		dl, ok := j.ctx.Deadline()
		if !ok {
			return context.Background(), func() {} //lint:allow ctx(server-owned batch root: detachment from member contexts is the documented contract above)
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	return context.WithDeadline(context.Background(), latest) //lint:allow ctx(server-owned batch root, deadline-bounded by the latest member)
}
