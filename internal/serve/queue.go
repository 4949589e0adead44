package serve

import (
	"context"
	"sync"
	"time"

	"repro/internal/bounded"
	"repro/internal/fm"
	"repro/internal/obs/tracing"
)

// evalJob is one admitted eval request waiting to be priced. Jobs are
// created fully validated: the graph is materialized, every schedule is
// checked legal, and fingerprints are precomputed, so the drain workers
// only ever do pricing work.
type evalJob struct {
	// ctx is the request's context (deadline already applied). A worker
	// skips a job whose context died while it queued.
	ctx context.Context
	// gfp and tgt form the coalescing key: jobs sharing both are priced
	// as one batch over the shared cache.
	gfp uint64
	tgt fm.Target
	g   *fm.Graph
	// scheds are the schedules to price, in request order.
	scheds []fm.Schedule
	// enqueued is the admission instant (server clock), for queue-wait
	// accounting.
	enqueued time.Time
	// rt is the request's flight-recorder trace (nil when tracing is
	// off). The drain worker advances its stage at batch pickup and
	// links it to the batch trace; every method is safe if the handler
	// has already finished the trace (a deadline raced the worker).
	rt *tracing.Request
	// result receives exactly one evalResult; buffered so a worker never
	// blocks on a departed waiter.
	result chan evalResult
}

type evalResult struct {
	costs []fm.Cost
	// batch is the number of jobs coalesced into the batch that priced
	// this job.
	batch int
	err   error
}

// jobQueue is the bounded admission queue: a mutex/cond guarded slice
// rather than a channel, because admission needs exact semantics the
// select statement cannot give — a full queue must refuse instantly
// (backpressure, not blocking), and a paused queue must not hand jobs to
// a worker already parked in a receive. Every admitted request occupies
// exactly one slot until a worker drains it, so memory and goroutines
// are bounded by construction: the server never spawns per-request
// workers.
type jobQueue struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	jobs     []*evalJob // guarded by mu
	capacity int
	paused   bool // guarded by mu
	closed   bool // guarded by mu
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{capacity: capacity}
	q.nonEmpty.L = &q.mu
	return q
}

// tryEnqueue admits j if a slot is free. It never blocks: a full (or
// closed) queue returns false immediately, which the handler turns into
// 429 + Retry-After. An admitted job's trace enters its queue_wait stage
// before any worker can see the job, so the worker's batch stage always
// follows it.
func (q *jobQueue) tryEnqueue(j *evalJob) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.jobs) >= q.capacity {
		return false
	}
	j.rt.Stage("queue_wait")
	q.jobs = append(q.jobs, j)
	q.nonEmpty.Broadcast()
	return true
}

// drainUpTo blocks until work is available and the queue is unpaused,
// then removes and returns up to max jobs in admission order. It returns
// nil only when the queue is closed and empty — a closed queue still
// hands out its remaining jobs, which is what lets shutdown drain
// in-flight work instead of dropping it. Pause is ignored once closed.
func (q *jobQueue) drainUpTo(max int) []*evalJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			break
		}
		if len(q.jobs) > 0 && !q.paused {
			break
		}
		q.nonEmpty.Wait()
	}
	if len(q.jobs) == 0 {
		return nil // closed and empty
	}
	n := len(q.jobs)
	if n > max {
		n = max
	}
	out := make([]*evalJob, n)
	copy(out, q.jobs)
	rest := copy(q.jobs, q.jobs[n:])
	for i := rest; i < len(q.jobs); i++ {
		q.jobs[i] = nil
	}
	q.jobs = q.jobs[:rest]
	return out
}

// setPaused parks (or releases) the drain workers. While paused, admitted
// jobs accumulate up to capacity — the deterministic-overload drill the
// overload tests drive.
func (q *jobQueue) setPaused(p bool) {
	q.mu.Lock()
	q.paused = p
	q.nonEmpty.Broadcast()
	q.mu.Unlock()
}

// close stops admission and wakes every worker; workers drain what
// remains and then exit.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.nonEmpty.Broadcast()
	q.mu.Unlock()
}

// depth returns the number of queued jobs.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// graphEntry is one materialized recurrence held for fingerprint-only
// requests.
type graphEntry struct {
	g   *fm.Graph
	dom *fm.Domain
}

// graphRegistry is a bounded map from graph fingerprint to materialized
// graph. A full registry evicts its oldest registration, so whether a
// fingerprint-only request finds its graph (200) or not (404) is a
// function of the request stream. Like the eval cache, eviction changes
// only what is remembered: a fingerprint miss tells the client to
// re-send the recurrence inline, never produces a wrong answer.
type graphRegistry struct {
	mu sync.Mutex
	m  *bounded.Map[uint64, *graphEntry] // guarded by mu
}

func newGraphRegistry() *graphRegistry {
	return &graphRegistry{m: bounded.New[uint64, *graphEntry](maxGraphs)}
}

func (r *graphRegistry) lookup(fp uint64) (*graphEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m.Get(fp)
}

// register records e under fp unless fp is already registered: the
// first domain to register a shared graph keeps it.
func (r *graphRegistry) register(fp uint64, e *graphEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m.Get(fp); !ok {
		r.m.Put(fp, e)
	}
}

func (r *graphRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m.Len()
}
