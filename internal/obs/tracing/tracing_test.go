package tracing_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs/tracing"
)

// TestExactStageSums pins the core contract: stage durations telescope
// to the request span exactly, in integer nanoseconds, with contiguous
// offsets and no gap before the first stage.
func TestExactStageSums(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	tr := tracing.New(tracing.Options{Seed: 1, Clock: clk})
	_, rt := tr.StartRequest(context.Background(), "/r", "decode")
	clk.Advance(7 * time.Nanosecond)
	rt.Stage("admission")
	clk.Advance(11 * time.Nanosecond)
	rt.Mark("barrier")
	rt.Stage("eval")
	clk.Advance(13 * time.Nanosecond)
	rt.Finish()

	ex := tr.Export()
	if len(ex.Traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(ex.Traces))
	}
	rec := ex.Traces[0]
	if rec.DurationNS != 31 {
		t.Fatalf("duration %d, want 31", rec.DurationNS)
	}
	var sum int64
	names := make([]string, 0, len(rec.Stages))
	for i, st := range rec.Stages {
		sum += st.DurationNS
		names = append(names, st.Name)
		if i == 0 && st.OffsetNS != 0 {
			t.Fatalf("first stage opens at offset %d, want 0", st.OffsetNS)
		}
		if i > 0 {
			prev := rec.Stages[i-1]
			if st.OffsetNS != prev.OffsetNS+prev.DurationNS {
				t.Fatalf("stage %d offset %d != prev offset %d + dur %d",
					i, st.OffsetNS, prev.OffsetNS, prev.DurationNS)
			}
		}
	}
	if sum != rec.DurationNS {
		t.Fatalf("stage sum %d != duration %d", sum, rec.DurationNS)
	}
	want := []string{"decode", "admission", "eval"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("stages %v, want %v", names, want)
		}
	}
	if rec.Stages[0].DurationNS != 7 || rec.Stages[1].DurationNS != 11 || rec.Stages[2].DurationNS != 13 {
		t.Fatalf("stage durations %+v, want 7/11/13", rec.Stages)
	}
	if len(rec.Marks) != 1 || rec.Marks[0].Name != "barrier" || rec.Marks[0].OffsetNS != 18 {
		t.Fatalf("marks %+v, want barrier at offset 18", rec.Marks)
	}
	if rec.Outcome != "ok" {
		t.Fatalf("unset outcome exports as %q, want ok", rec.Outcome)
	}
}

// TestDeterministicIDs: trace and span identity is a pure function of
// (seed, admission sequence) — two same-seed tracers mint identical IDs
// in identical order, and a different seed diverges.
func TestDeterministicIDs(t *testing.T) {
	mint := func(seed uint64) []tracing.Record {
		tr := tracing.New(tracing.Options{Seed: seed, Clock: clock.NewFake(time.Unix(0, 0))})
		for _, route := range []string{"/a", "/b", "/c"} {
			_, rt := tr.StartRequest(context.Background(), route, "s0")
			rt.Stage("s1")
			rt.Finish()
		}
		return tr.Export().Traces
	}
	a, b := mint(42), mint(42)
	for i := range a {
		if a[i].TraceID != b[i].TraceID {
			t.Fatalf("trace %d: IDs diverge across same-seed tracers: %s vs %s", i, a[i].TraceID, b[i].TraceID)
		}
		for j := range a[i].Stages {
			if a[i].Stages[j].SpanID != b[i].Stages[j].SpanID {
				t.Fatalf("trace %d stage %d: span IDs diverge", i, j)
			}
		}
		if len(a[i].TraceID) != 16 {
			t.Fatalf("trace ID %q is not 16 hex digits", a[i].TraceID)
		}
	}
	if a[0].TraceID == a[1].TraceID {
		t.Fatalf("consecutive requests share a trace ID: %s", a[0].TraceID)
	}
	other := mint(43)
	if other[0].TraceID == a[0].TraceID {
		t.Fatalf("different seeds minted the same trace ID %s", a[0].TraceID)
	}
}

// TestIDsGolden pins the exact trace and span IDs of the first three
// requests under seed 1. TestDeterministicIDs compares two tracers with
// each other, so a changed mixer would pass it; these values would not.
func TestIDsGolden(t *testing.T) {
	tr := tracing.New(tracing.Options{Seed: 1, Clock: clock.NewFake(time.Unix(0, 0))})
	for _, route := range []string{"/a", "/b", "/c"} {
		_, rt := tr.StartRequest(context.Background(), route, "s0")
		rt.Stage("s1")
		rt.Finish()
	}
	want := [][3]string{
		{"e9fd6049d65af21e", "7095beebd76575e4", "449356e76b1ec655"},
		{"e06dd043328bd285", "89c6b79e1d39dd80", "a6ac6a00e3f501cc"},
		{"ec4c5bee627011b3", "28ad05200e0526c1", "b0f663006a112a38"},
	}
	recs := tr.Export().Traces
	if len(recs) != len(want) {
		t.Fatalf("exported %d traces, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		got := [3]string{rec.TraceID, rec.Stages[0].SpanID, rec.Stages[1].SpanID}
		if got != want[i] {
			t.Errorf("request %d: trace/span IDs %v, want %v", i, got, want[i])
		}
	}
}

// TestNilPathZeroAllocs gates the "free when absent" half of the
// contract: the entire API surface on a nil tracer/request allocates
// nothing.
func TestNilPathZeroAllocs(t *testing.T) {
	var tr *tracing.Tracer
	ctx := context.Background()
	var ctxOut context.Context
	allocs := testing.AllocsPerRun(200, func() {
		c2, rt := tr.StartRequest(ctx, "/r", "decode")
		ctxOut = c2
		rt.Stage("x")
		rt.Annotate("k", "v")
		rt.Mark("m")
		rt.SetOutcome("degraded")
		_ = rt.TraceID()
		rt.Finish()
		_ = tracing.FromContext(ctx)
		tr.StartDetached("batch", "coalesce").Finish()
		_ = tr.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("nil path allocates %v per run, want 0", allocs)
	}
	if ctxOut != ctx {
		t.Fatalf("nil StartRequest must return the context unchanged")
	}
}

// TestFinishIdempotent: the deferred backstop Finish after an explicit
// one must not commit a second record or move the trace's end.
func TestFinishIdempotent(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	tr := tracing.New(tracing.Options{Seed: 1, Clock: clk})
	_, rt := tr.StartRequest(context.Background(), "/r", "s")
	clk.Advance(5 * time.Nanosecond)
	rt.Finish()
	clk.Advance(100 * time.Nanosecond)
	rt.Finish()
	rt.Stage("late")
	rt.Annotate("late", "true")

	ex := tr.Export()
	if ex.Completed != 1 || len(ex.Traces) != 1 {
		t.Fatalf("double Finish committed %d records (%d retained)", ex.Completed, len(ex.Traces))
	}
	rec := ex.Traces[0]
	if rec.DurationNS != 5 || len(rec.Stages) != 1 || len(rec.Annotations) != 0 {
		t.Fatalf("post-Finish calls mutated the record: %+v", rec)
	}
}

// TestRingEvictsOldestNonExemplar: the ring stays exactly bounded,
// evicts in completion order, and never evicts a pinned slow-request
// exemplar while an unpinned record remains.
func TestRingEvictsOldestNonExemplar(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	var exemplars []string
	tr := tracing.New(tracing.Options{
		Seed: 1, Capacity: 4, ExemplarK: 1, Clock: clk,
		OnExemplar: func(rec tracing.Record) { exemplars = append(exemplars, rec.TraceID) },
	})
	finish := func(d time.Duration) string {
		rt := tr.StartDetached("/r", "s")
		clk.Advance(d)
		rt.Finish()
		return rt.TraceID()
	}
	slow := finish(10 * time.Nanosecond) // becomes the K=1 exemplar
	var rest []string
	for i := 0; i < 5; i++ {
		rest = append(rest, finish(time.Duration(i)*time.Nanosecond))
	}

	ex := tr.Export()
	if ex.Completed != 6 || ex.Evicted != 2 {
		t.Fatalf("completed=%d evicted=%d, want 6/2", ex.Completed, ex.Evicted)
	}
	if len(ex.Traces) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(ex.Traces))
	}
	// The slowest record survives from the front of the ring, pinned;
	// after it, the three most recent completions in order.
	if ex.Traces[0].TraceID != slow || !ex.Traces[0].Exemplar {
		t.Fatalf("slowest trace not retained as exemplar: %+v", ex.Traces[0])
	}
	for i, want := range rest[2:] {
		got := ex.Traces[i+1]
		if got.TraceID != want || got.Exemplar {
			t.Fatalf("ring[%d] = %s (exemplar=%v), want %s unpinned", i+1, got.TraceID, got.Exemplar, want)
		}
	}
	if len(exemplars) != 1 || exemplars[0] != slow {
		t.Fatalf("OnExemplar fired for %v, want exactly [%s]", exemplars, slow)
	}
}

// TestRingForceEvictsWhenAllPinned: with capacity below the exemplar
// budget every resident is pinned; the ring must still stay bounded by
// unpinning and evicting the oldest.
func TestRingForceEvictsWhenAllPinned(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	tr := tracing.New(tracing.Options{Seed: 1, Capacity: 2, ExemplarK: 3, Clock: clk})
	var ids []string
	for i := 0; i < 3; i++ {
		rt := tr.StartDetached("/r", "s")
		clk.Advance(time.Duration(i+1) * time.Nanosecond)
		rt.Finish()
		ids = append(ids, rt.TraceID())
	}
	ex := tr.Export()
	if len(ex.Traces) != 2 || ex.Evicted != 1 {
		t.Fatalf("fully pinned ring not bounded: %d retained, %d evicted", len(ex.Traces), ex.Evicted)
	}
	if ex.Traces[0].TraceID != ids[1] || ex.Traces[1].TraceID != ids[2] {
		t.Fatalf("force eviction took %s, want oldest %s", ex.Traces[0].TraceID, ids[0])
	}
}

// TestExemplarTiesKeepIncumbent: displacement needs a strictly slower
// newcomer, so under a frozen clock (every duration zero) the first K
// completions per route stay the exemplars — churn is deterministic.
func TestExemplarTiesKeepIncumbent(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	tr := tracing.New(tracing.Options{Seed: 1, Capacity: 16, ExemplarK: 2, Clock: clk})
	var ids []string
	for i := 0; i < 5; i++ {
		rt := tr.StartDetached("/r", "s")
		rt.Finish()
		ids = append(ids, rt.TraceID())
	}
	for _, rec := range tr.Export().Traces {
		want := rec.TraceID == ids[0] || rec.TraceID == ids[1]
		if rec.Exemplar != want {
			t.Fatalf("trace %s exemplar=%v, want %v (ties must keep incumbents)", rec.TraceID, rec.Exemplar, want)
		}
	}
}

// TestHandlerMarshalTwiceIdentical: the /debug/traces document and the
// Chrome rendering are deterministic functions of the retained records.
func TestHandlerMarshalTwiceIdentical(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	tr := tracing.New(tracing.Options{Seed: 9, Clock: clk})
	for i := 0; i < 3; i++ {
		_, rt := tr.StartRequest(context.Background(), "/r", "decode")
		rt.Annotate("b", "2")
		rt.Annotate("a", "1")
		clk.Advance(3 * time.Nanosecond)
		rt.Stage("eval")
		rt.Mark("m")
		clk.Advance(2 * time.Nanosecond)
		rt.Finish()
	}
	scrape := func() []byte {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
		return rec.Body.Bytes()
	}
	a, b := scrape(), scrape()
	if !bytes.Equal(a, b) {
		t.Fatalf("two scrapes differ:\n%s\n---\n%s", a, b)
	}
	var c1, c2 bytes.Buffer
	if err := tr.WriteChrome(&c1); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatalf("two Chrome exports differ")
	}
	if c1.Len() == 0 || a == nil {
		t.Fatalf("empty export")
	}
}

// TestNilTracerExportsEmptyDocument: a disabled tracer still serves
// valid (empty) documents.
func TestNilTracerExportsEmptyDocument(t *testing.T) {
	var tr *tracing.Tracer
	ex := tr.Export()
	if ex.Traces == nil || len(ex.Traces) != 0 {
		t.Fatalf("nil export traces: %#v, want empty non-nil slice", ex.Traces)
	}
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte(`"traces": []`)) {
		t.Fatalf("nil handler served %d %q", rec.Code, rec.Body.String())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
}
