// Package tracing is the serving layer's flight recorder: per-request
// span trees with deterministic identity and exact attribution. Where
// internal/trace answers "where did the machine's cycles go" (critical
// path attribution summing exactly to makespan), this package answers
// the same question one level up — where did a request's latency go:
// admission, queue wait, batch coalescing, evaluation, store traffic —
// under the same two contracts:
//
//   - Determinism. Trace and span IDs derive from a per-server seed and
//     an admission sequence number, never from the wall clock or global
//     rand; timestamps are read only through the Clock seam. Two
//     same-seed drills against a frozen clock export byte-identical
//     traces, so a trace diff is a regression test, not a screenshot.
//   - Exact sums. A request trace is a partition of its lifetime into
//     contiguous stages: each Stage call closes the current stage and
//     opens the next at the same clock reading, and Finish closes the
//     last. Stage durations therefore telescope — they sum to the
//     request span exactly, in integer nanoseconds, never
//     "approximately".
//
// Like internal/obs, the API is nil-safe and free when absent: every
// method no-ops on a nil *Tracer or nil *Request, the disabled path
// allocates nothing (gated by an AllocsPerRun test), and tracing only
// ever observes the computation, never steers it.
package tracing

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/splitmix"
)

// Options configures a Tracer. The zero value of every field except
// Clock selects a sensible default.
type Options struct {
	// Seed is the per-server identity seed trace IDs derive from.
	Seed uint64
	// Capacity bounds the completed-trace ring buffer. Default 256.
	Capacity int
	// ExemplarK pins the K slowest traces per route against eviction.
	// Default 4; 0 disables exemplar retention.
	ExemplarK int
	// Clock supplies timestamps; required. Pass the clock the server
	// or router reads, so spans and latency metrics share one source.
	Clock clock.Clock
	// OnExemplar, when non-nil, is called (synchronously, on the
	// finishing goroutine) each time a completed trace first becomes a
	// slow-request exemplar — the hook mapd uses to emit a log line
	// carrying the trace ID, joining logs to traces.
	OnExemplar func(Record)
}

// Tracer mints request traces and retains the completed ones. A nil
// *Tracer is the disabled tracer: StartRequest returns the context
// unchanged and a nil *Request, and every downstream call is a free
// no-op.
type Tracer struct {
	seed       uint64
	clock      clock.Clock
	buf        *buffer
	onExemplar func(Record)
	seq        atomic.Uint64
}

// New builds a Tracer. Options.Clock must be non-nil — the tracer has
// no fallback time source by design (a hidden time.Now would break the
// determinism contract).
func New(opts Options) *Tracer {
	if opts.Clock == nil {
		//lint:allow panic(constructor argument contract: a tracer without a clock seam cannot honor determinism; callers pass the clock the server or router reads)
		panic("tracing: Options.Clock is required")
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.ExemplarK < 0 {
		opts.ExemplarK = 0
	}
	return &Tracer{
		seed:       opts.Seed,
		clock:      opts.Clock,
		buf:        newBuffer(opts.Capacity, opts.ExemplarK),
		onExemplar: opts.OnExemplar,
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// requestKey binds a *Request into a context.Context.
type requestKey struct{}

// StartRequest begins a request trace on route, opening its first stage
// (named first) at the current clock reading, and binds the trace into
// the returned context so deeper layers recover it with FromContext. On
// a nil tracer it returns ctx unchanged and a nil *Request — zero
// allocations, zero overhead.
func (t *Tracer) StartRequest(ctx context.Context, route, first string) (context.Context, *Request) {
	if t == nil {
		return ctx, nil
	}
	r := t.start(route, first)
	return context.WithValue(ctx, requestKey{}, r), r
}

// StartDetached begins a trace not bound to any context — the batch
// trace: a server-owned span whose lifetime belongs to the drain
// worker, not to any one member request. Nil tracer returns nil.
func (t *Tracer) StartDetached(route, first string) *Request {
	if t == nil {
		return nil
	}
	return t.start(route, first)
}

func (t *Tracer) start(route, first string) *Request {
	seq := t.seq.Add(1)
	now := t.clock.Now()
	r := &Request{
		t:       t,
		seq:     seq,
		traceID: mix(t.seed ^ mix(seq)),
		route:   route,
		start:   now,
	}
	r.stages = append(r.stages, stageMark{name: first, start: now})
	return r
}

// FromContext returns the request trace bound by StartRequest, or nil —
// which every Request method accepts.
func FromContext(ctx context.Context) *Request {
	r, _ := ctx.Value(requestKey{}).(*Request)
	return r
}

// maxStages and maxMarks bound what one trace can accumulate, so a
// pathological caller cannot turn the flight recorder into a leak.
const (
	maxStages = 64
	maxMarks  = 256
)

// stageMark is an open stage boundary: the closing instant is the next
// stage's opening one (or the trace end), which is what makes stage
// durations telescope to the request span exactly.
type stageMark struct {
	name  string
	start time.Time
}

// Request is one in-flight trace. All methods are safe on a nil
// receiver and safe to call concurrently (the handler and a drain
// worker can legitimately race on a job that expired while queued);
// calls after Finish are no-ops.
type Request struct {
	t *Tracer

	mu      sync.Mutex
	seq     uint64
	traceID uint64
	route   string
	start   time.Time
	stages  []stageMark
	marks   []MarkRecord
	annos   map[string]string
	outcome string
	done    bool
}

// Stage closes the current stage and opens name at the same clock
// reading. The boundaries partition the request span: no gaps, no
// overlap, exact sums.
//
// Stage sits on the serving hot path and is called with a nil receiver
// whenever tracing is disabled, so the nil fast path must stay
// allocation-free; hotalloc checks that statically.
//
//lint:hotpath
func (r *Request) Stage(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.done && len(r.stages) < maxStages {
		//lint:allow alloc(enabled-tracing slow path: the append is bounded by maxStages and the clock is an injected interface; the nil fast path above allocates nothing)
		r.stages = append(r.stages, stageMark{name: name, start: r.t.clock.Now()})
	}
	r.mu.Unlock()
}

// Annotate attaches a key/value pair to the trace (refusal reasons,
// batch links, resume provenance). Later writes to the same key win.
func (r *Request) Annotate(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.done {
		if r.annos == nil {
			r.annos = make(map[string]string, 4)
		}
		r.annos[key] = value
	}
	r.mu.Unlock()
}

// Mark records an instantaneous event (an anneal exchange barrier, say)
// at the current clock reading, without opening a stage. Like Stage it
// is hot-path: the nil fast path must stay allocation-free.
//
//lint:hotpath
func (r *Request) Mark(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.done && len(r.marks) < maxMarks {
		//lint:allow alloc(enabled-tracing slow path: the append is bounded by maxMarks and the clock is an injected interface; the nil fast path above allocates nothing)
		r.marks = append(r.marks, MarkRecord{
			Name: name,
			//lint:allow alloc(the clock is an injected interface; both implementations read time without allocating)
			OffsetNS: r.t.clock.Now().Sub(r.start).Nanoseconds(),
		})
	}
	r.mu.Unlock()
}

// SetOutcome labels how the request ended: ok, degraded, rejected,
// deadline, canceled, error. Unset means "ok".
func (r *Request) SetOutcome(outcome string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.done {
		r.outcome = outcome
	}
	r.mu.Unlock()
}

// TraceID returns the trace's deterministic identity as 16 hex digits;
// "" on a nil receiver.
func (r *Request) TraceID() string {
	if r == nil {
		return ""
	}
	return formatID(r.traceID)
}

// Finish closes the last stage at the current clock reading and commits
// the completed record to the tracer's ring buffer. Idempotent: handlers
// defer it as a backstop and also call it explicitly before writing the
// response, so a sequential client observes completed traces in request
// order.
func (r *Request) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	end := r.t.clock.Now()
	rec := r.buildRecordLocked(end)
	t := r.t
	r.mu.Unlock()

	if becameExemplar := t.buf.add(rec); becameExemplar && t.onExemplar != nil {
		t.onExemplar(*rec)
	}
}

// buildRecordLocked freezes the trace into its wire form. Stage i spans
// [stages[i].start, stages[i+1].start) — the last spans to end — so the
// durations telescope to end-start exactly.
func (r *Request) buildRecordLocked(end time.Time) *Record {
	rec := &Record{
		TraceID:     formatID(r.traceID),
		Seq:         r.seq,
		Route:       r.route,
		StartUnixNS: r.start.UnixNano(),
		DurationNS:  end.Sub(r.start).Nanoseconds(),
		Outcome:     r.outcome,
		Annotations: r.annos,
		Marks:       r.marks,
	}
	if rec.Outcome == "" {
		rec.Outcome = "ok"
	}
	rec.Stages = make([]StageRecord, len(r.stages))
	for i, st := range r.stages {
		stop := end
		if i+1 < len(r.stages) {
			stop = r.stages[i+1].start
		}
		rec.Stages[i] = StageRecord{
			SpanID:     formatID(mix(r.traceID ^ uint64(i+1))),
			Name:       st.name,
			OffsetNS:   st.start.Sub(r.start).Nanoseconds(),
			DurationNS: stop.Sub(st.start).Nanoseconds(),
		}
	}
	return rec
}

// mix is one splitmix64 step: a cheap, well-distributed hash from
// (seed, sequence number) to trace identity. Purely arithmetic — no
// clock, no rand — so same seed + same admission order means same IDs.
func mix(x uint64) uint64 {
	return splitmix.Mix64(x + 0x9e3779b97f4a7c15)
}

func formatID(id uint64) string {
	return fmt.Sprintf("%016x", id)
}
