// Package serve is the mapping-evaluation service: the F&M cost model
// (internal/fm) behind a long-running, batching, backpressured HTTP
// front end. The panel paper's argument is that once function and
// mapping are explicit, cost evaluation is cheap and mechanical — which
// makes it a natural service: many clients asking "what does this
// mapping cost on this target?" and "find me a better one". Everything
// the repo built below this layer is load-bearing here: candidate
// pricing fans out on the shared work-stealing pool (internal/workspan),
// repeated mappings are priced once through the sharded EvalCache
// (internal/fm/search), searches checkpoint at barriers and resume after
// restarts, and every decision the server takes is visible in the obs
// registry.
//
// The serving machinery, not the handlers, is the point:
//
//   - Micro-batching admission: concurrent eval requests sharing a
//     (graph fingerprint, target) key coalesce into one batch priced by
//     search.EvalBatch, so a thundering herd asking about the same graph
//     costs one evaluation per distinct schedule.
//   - Bounded queue with backpressure: admission is a non-blocking
//     reservation against a fixed-capacity queue; a full queue answers
//     429 with Retry-After, never an unbounded goroutine pile.
//   - Deadline propagation: the client's X-Deadline-Ms flows into a
//     context that bounds schedule construction (checked before each
//     schedule), queue wait, batch evaluation (through
//     workspan.Pool.RunWith), and annealing (checked at exchange
//     barriers), so a timed-out client never keeps the server working.
//   - Graceful degradation: under overload or an operator-engaged shed
//     mode, eval requests fall back to cache-only answers and search
//     requests return the best-so-far result of a previous or running
//     search — both marked "degraded": true, both exact for what they
//     claim to be.
//   - Graceful shutdown: draining stops admission, finishes queued work,
//     halts searches at their next barrier (checkpointing state), and
//     flushes a final metrics snapshot.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fm/search"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/store"
	"repro/internal/workspan"
)

// Mode is the admission mode, settable at runtime via POST /v1/admission
// (when Config.AdmissionControl allows).
type Mode int32

const (
	// ModeServe is normal operation: admit, batch, evaluate.
	ModeServe Mode = iota
	// ModeShed is operator-engaged load shedding: eval requests are
	// served from cache when possible (degraded), uncached work still
	// queues, searches only replay stored results.
	ModeShed
	// ModePause is ModeShed with the drain workers parked: admitted jobs
	// accumulate in the queue without being processed. The overload
	// tests (TestOverloadExactCounts) use it to fill the queue
	// deterministically.
	ModePause
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeServe:
		return "serve"
	case ModeShed:
		return "shed"
	case ModePause:
		return "pause"
	default:
		return fmt.Sprintf("Mode(%d)", int32(m))
	}
}

// parseMode inverts String for the admission endpoint.
func parseMode(s string) (Mode, error) {
	switch s {
	case "serve":
		return ModeServe, nil
	case "shed":
		return ModeShed, nil
	case "pause":
		return ModePause, nil
	default:
		return 0, fmt.Errorf("unknown admission mode %q (want serve|shed|pause)", s)
	}
}

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// PoolWorkers sizes the shared work-stealing pool every batch and
	// search runs on. 0 means one per CPU.
	PoolWorkers int
	// QueueDepth is the eval admission queue capacity. Default 64.
	QueueDepth int
	// EvalWorkers is the number of queue drain workers. Default 2.
	EvalWorkers int
	// BatchMax caps the jobs one drain coalesces. Default 32.
	BatchMax int
	// MaxSearches bounds concurrently running searches. Default 2.
	MaxSearches int
	// CacheEntries bounds the shared EvalCache. Default 65536.
	CacheEntries int
	// DefaultDeadline bounds requests that carry no deadline of their
	// own. Default 30s.
	DefaultDeadline time.Duration
	// CheckpointDir, when non-empty, gives annealing searches crash-safe
	// disk checkpoints (one file per search key) that later identical
	// requests resume from.
	CheckpointDir string
	// AdmissionControl enables POST /v1/admission (mode switching).
	// Off by default: an open mode switch is an operator tool, not a
	// public API.
	AdmissionControl bool
	// Store, when non-nil, is the persistent mapping atlas
	// (internal/store): evaluations missing from the in-process cache
	// are answered from it (warm restarts), and every mapping an eval
	// prices is appended to it. Searches neither read nor write it.
	// Nil disables persistence.
	Store *store.Store
	// Clock supplies time. Default clock.System.
	Clock clock.Clock
	// Obs receives service metrics under "serve.*" plus the eval cache's
	// "search.evalcache.*" gauges. Nil disables instrumentation at zero
	// cost.
	Obs *obs.Registry
	// Tracer, when non-nil, records a per-request flight-recorder trace
	// for every eval/search/slack request (and every coalesced batch),
	// exposed at GET /debug/traces. The tracer must share this server's
	// Clock — it is the caller's job to construct it that way — so
	// request spans and latency metrics read the same time. Nil disables
	// tracing at zero cost.
	Tracer *tracing.Tracer
}

// SystemClock is clock.System, kept under this name for callers that
// configure a server with serve.SystemClock{}.
type SystemClock = clock.System

func (c Config) withDefaults() Config {
	if c.PoolWorkers <= 0 {
		c.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.EvalWorkers <= 0 {
		c.EvalWorkers = 2
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.MaxSearches <= 0 {
		c.MaxSearches = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1 << 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	return c
}

// Server is the mapping-evaluation service. Create with NewServer, mount
// Handler on any http.Server, and stop with Drain then Close.
type Server struct {
	cfg    Config
	clock  clock.Clock
	reg    *obs.Registry
	tracer *tracing.Tracer

	pool     *workspan.Pool
	cache    *search.EvalCache
	graphs   *graphRegistry
	queue    *jobQueue
	searches *searchRegistry
	store    *store.Store

	mode     atomic.Int32
	draining atomic.Bool
	// storeUnhealthy records (immutably, at construction) that store
	// recovery quarantined or lost data; healthz surfaces it so a router
	// can prefer replicas with intact warmth.
	storeUnhealthy bool

	// baseCtx is cancelled by Drain; every search derives from it so
	// draining halts them at their next exchange barrier.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	workerWG sync.WaitGroup
	mux      *http.ServeMux

	// jobEWMA is an exponentially weighted moving average of per-job
	// batch service time in seconds (stored as float64 bits), feeding the
	// Retry-After estimate. Zero means "no data yet".
	jobEWMA atomic.Uint64

	// Instruments, resolved once; all nil-safe.
	mEvalRequests, mEvalOK, mEvalDegraded, mEvalRejected, mEvalDeadline *obs.Counter
	mSearchRequests, mSearchOK, mSearchDegraded, mSearchRejected        *obs.Counter
	mSearchPartial, mSlackRequests, mBatches, mCoalesced                *obs.Counter
	mExchangeRequests, mExchangeOK, mExchangeRejected                   *obs.Counter
	mStoreHits, mStoreMisses, mStorePuts, mStorePutErrs                 *obs.Counter
	mQueueDepth, gStoreUnhealthy                                        *obs.Gauge
	mBatchJobs                                                          *obs.Histogram
	mQueueWait, mEvalLatency, mSearchLatency                            *obs.Timer
}

// NewServer builds a Server and starts its drain workers. The caller
// owns shutdown: Drain (stop admission, finish work) then Close (release
// the pool, final snapshot).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.EvalWorkers > cfg.QueueDepth {
		return nil, fmt.Errorf("serve: %d eval workers cannot drain a depth-%d queue", cfg.EvalWorkers, cfg.QueueDepth)
	}
	s := &Server{
		cfg:      cfg,
		clock:    cfg.Clock,
		reg:      cfg.Obs,
		tracer:   cfg.Tracer,
		pool:     workspan.NewPool(cfg.PoolWorkers, workspan.WorkStealing),
		cache:    search.NewBoundedEvalCache(cfg.CacheEntries),
		graphs:   newGraphRegistry(),
		queue:    newJobQueue(cfg.QueueDepth),
		searches: newSearchRegistry(cfg.MaxSearches),
		store:    cfg.Store,
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background()) //lint:allow ctx(process lifetime root: baseCtx outlives every request by design)
	s.pool.Instrument(s.reg)
	s.instrument()
	if s.store != nil && !s.store.Report().Healthy() {
		// Recovery quarantined or lost data: serve what survived, but
		// say so — degraded-but-honest, never silently incomplete.
		s.gStoreUnhealthy.Set(1)
		s.storeUnhealthy = true
	}
	s.routes()
	for i := 0; i < cfg.EvalWorkers; i++ {
		s.workerWG.Add(1)
		go s.evalWorker()
	}
	return s, nil
}

func (s *Server) instrument() {
	r := s.reg
	s.mEvalRequests = r.Counter("serve.eval.requests")
	s.mEvalOK = r.Counter("serve.eval.ok")
	s.mEvalDegraded = r.Counter("serve.eval.degraded")
	s.mEvalRejected = r.Counter("serve.eval.rejected")
	s.mEvalDeadline = r.Counter("serve.eval.deadline_exceeded")
	s.mSearchRequests = r.Counter("serve.search.requests")
	s.mSearchOK = r.Counter("serve.search.ok")
	s.mSearchDegraded = r.Counter("serve.search.degraded")
	s.mSearchRejected = r.Counter("serve.search.rejected")
	s.mSearchPartial = r.Counter("serve.search.partial")
	s.mSlackRequests = r.Counter("serve.slack.requests")
	s.mExchangeRequests = r.Counter("serve.exchange.requests")
	s.mExchangeOK = r.Counter("serve.exchange.ok")
	s.mExchangeRejected = r.Counter("serve.exchange.rejected")
	s.mBatches = r.Counter("serve.eval.batches")
	s.mCoalesced = r.Counter("serve.eval.coalesced")
	s.mStoreHits = r.Counter("serve.store.hits")
	s.mStoreMisses = r.Counter("serve.store.misses")
	s.mStorePuts = r.Counter("serve.store.puts")
	s.mStorePutErrs = r.Counter("serve.store.put_errors")
	s.mQueueDepth = r.Gauge("serve.queue.depth")
	s.gStoreUnhealthy = r.Gauge("serve.store.unhealthy")
	s.mBatchJobs = r.Histogram("serve.eval.batch_jobs", []float64{1, 2, 4, 8, 16, 32, 64})
	s.mQueueWait = r.Timer("serve.eval.queue_wait_seconds")
	s.mEvalLatency = r.Timer("serve.eval.latency_seconds")
	s.mSearchLatency = r.Timer("serve.search.latency_seconds")
}

// Mode returns the current admission mode.
func (s *Server) Mode() Mode { return Mode(s.mode.Load()) }

// SetMode switches the admission mode (also reachable over HTTP when
// Config.AdmissionControl is set).
func (s *Server) SetMode(m Mode) {
	s.mode.Store(int32(m))
	s.queue.setPaused(m == ModePause)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins graceful shutdown: new requests are refused with 503,
// queued eval jobs are finished (pause is released — drain outranks a
// drill), running searches stop at their next exchange barrier and
// record best-so-far state (and disk checkpoints when configured), and
// the drain workers exit. Drain returns once all of that has happened or
// ctx expires, whichever is first; on timeout the workers keep draining
// in the background and Close remains safe.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.cancelBase()
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		s.searches.wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain deadline expired with work in flight: %w", ctx.Err())
	}
}

// Close releases the shared pool and returns the final metrics snapshot
// (cache stats freshly published). Call after Drain; calling Close on an
// undrained server drains it first with a short deadline.
func (s *Server) Close() obs.Snapshot {
	if !s.draining.Load() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second) //lint:allow ctx(shutdown path: no request context exists during Close)
		_ = s.Drain(ctx)
		cancel()
	}
	s.pool.Close()
	s.cache.PublishObs(s.reg)
	s.mQueueDepth.Set(float64(s.queue.depth()))
	return s.reg.Snapshot()
}

// deadlineFor derives the request's working context: the X-Deadline-Ms
// header, else the body's deadline_ms, else the server default, all
// anchored on parent (the request context, with the request trace
// already bound in) so a disconnecting client cancels its own handler
// and deeper layers can still recover the trace. A malformed or
// non-positive header is a client error, reported as one — never
// silently served under the default deadline.
func (s *Server) deadlineFor(parent context.Context, r *http.Request, bodyMS int64) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("X-Deadline-Ms %q is not a positive integer of milliseconds", h)
		}
		d = time.Duration(ms) * time.Millisecond
	} else if bodyMS > 0 {
		d = time.Duration(bodyMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(parent, d)
	return ctx, cancel, nil
}

// observeBatch folds one coalesced group's per-job service time into
// the EWMA.
func (s *Server) observeBatch(jobs int, elapsed time.Duration) {
	if jobs <= 0 {
		return
	}
	per := elapsed.Seconds() / float64(jobs)
	const alpha = 0.2
	for {
		oldBits := s.jobEWMA.Load()
		old := math.Float64frombits(oldBits)
		next := per
		if old > 0 {
			next = old*(1-alpha) + per*alpha
		}
		if s.jobEWMA.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSeconds estimates when a rejected client should come back:
// the queued work divided by drain bandwidth, priced at the observed
// per-job service time. With no observations yet (or a paused queue,
// where no estimate is honest) it answers 1 — the deterministic floor
// the overload tests pin.
func (s *Server) retryAfterSeconds() int {
	ewma := math.Float64frombits(s.jobEWMA.Load())
	if ewma <= 0 || s.Mode() == ModePause {
		return 1
	}
	queued := float64(s.queue.depth())
	est := math.Ceil(ewma * (queued + 1) / float64(s.cfg.EvalWorkers))
	if est < 1 {
		return 1
	}
	if est > 60 {
		return 60
	}
	return int(est)
}

// errIsCtx reports whether err is a context deadline or cancellation —
// the "work was cut short" class that searches degrade into a partial
// best-so-far answer. HTTP status mapping distinguishes the two cases
// (504 for a deadline, 503 for a cancellation); see writeEvalError.
func errIsCtx(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
