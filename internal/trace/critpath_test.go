package trace_test

import (
	"math"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/replay"
	"repro/internal/tech"
	"repro/internal/trace"
)

func checkPathInvariants(t *testing.T, rep trace.PathReport) {
	t.Helper()
	var sum, byKind float64
	prevEnd := math.Inf(-1)
	for i, s := range rep.Segments {
		sum += s.AttributedPS
		if s.WaitPS < 0 || s.WaitPS > s.AttributedPS+1e-9 {
			t.Fatalf("segment %d: wait %g outside [0, attributed %g]", i, s.WaitPS, s.AttributedPS)
		}
		if s.Event.End < prevEnd {
			t.Fatalf("segment %d out of time order: End %g after %g", i, s.Event.End, prevEnd)
		}
		prevEnd = s.Event.End
	}
	for _, v := range rep.ByKindPS {
		byKind += v
	}
	if diff := math.Abs(sum - rep.MakespanPS); diff > 1e-6*math.Max(1, rep.MakespanPS) {
		t.Fatalf("segments sum to %g, makespan %g", sum, rep.MakespanPS)
	}
	if diff := math.Abs(byKind + rep.WaitPS - rep.MakespanPS); diff > 1e-6*math.Max(1, rep.MakespanPS) {
		t.Fatalf("ByKindPS (%g) + WaitPS (%g) != makespan %g", byKind, rep.WaitPS, rep.MakespanPS)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	rep := trace.CriticalPath(trace.New())
	if rep.MakespanPS != 0 || len(rep.Segments) != 0 || rep.WaitPS != 0 {
		t.Fatalf("empty trace produced non-zero report: %+v", rep)
	}
}

func TestCriticalPathChain(t *testing.T) {
	tr := trace.New()
	a, b := geom.Pt(0, 0), geom.Pt(1, 0)
	tr.Add(trace.Event{Kind: trace.KindCompute, Start: 0, End: 100, Place: a})
	tr.Add(trace.Event{Kind: trace.KindWire, Start: 100, End: 300, Place: a, Dst: b})
	tr.Add(trace.Event{Kind: trace.KindCompute, Start: 300, End: 500, Place: b})
	// Gap: the final event waits 100 ps after its predecessor finishes.
	tr.Add(trace.Event{Kind: trace.KindCompute, Start: 600, End: 800, Place: b})
	// A short, irrelevant event elsewhere must not appear on the path.
	tr.Add(trace.Event{Kind: trace.KindMemory, Start: 0, End: 50, Place: geom.Pt(3, 0)})

	rep := trace.CriticalPath(tr)
	checkPathInvariants(t, rep)
	if rep.MakespanPS != 800 {
		t.Fatalf("makespan %g, want 800", rep.MakespanPS)
	}
	if len(rep.Segments) != 4 {
		t.Fatalf("path has %d segments, want 4: %+v", len(rep.Segments), rep.Segments)
	}
	wantKinds := []trace.Kind{trace.KindCompute, trace.KindWire, trace.KindCompute, trace.KindCompute}
	for i, k := range wantKinds {
		if rep.Segments[i].Event.Kind != k {
			t.Fatalf("segment %d kind %v, want %v", i, rep.Segments[i].Event.Kind, k)
		}
	}
	if rep.WaitPS != 100 {
		t.Fatalf("WaitPS %g, want 100 (the 500..600 gap)", rep.WaitPS)
	}
	if got := rep.ByKindPS[trace.KindWire]; got != 200 {
		t.Fatalf("wire attribution %g, want 200", got)
	}
	if got := rep.ByKindPS[trace.KindCompute]; got != 500 {
		t.Fatalf("compute attribution %g, want 500", got)
	}
}

func TestCriticalPathZeroDurationEventsTerminate(t *testing.T) {
	tr := trace.New()
	p := geom.Pt(0, 0)
	// Several zero-duration events at the same instant must not loop.
	for i := 0; i < 5; i++ {
		tr.Add(trace.Event{Kind: trace.KindOverhead, Start: 100, End: 100, Place: p})
	}
	tr.Add(trace.Event{Kind: trace.KindCompute, Start: 0, End: 100, Place: p})
	rep := trace.CriticalPath(tr)
	checkPathInvariants(t, rep)
	if rep.MakespanPS != 100 {
		t.Fatalf("makespan %g, want 100", rep.MakespanPS)
	}
}

// TestCriticalPathAntiDiagonalReplay is the acceptance check: on the
// paper's anti-diagonal edit-distance mapping, the critical path's
// telescoped segment durations must sum to exactly the makespan the
// machine reports.
func TestCriticalPathAntiDiagonalReplay(t *testing.T) {
	const n, p = 8, 4
	g, dom, err := fm.Recurrence{
		Name: "edit",
		Dims: []int{n, n},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tgt := fm.DefaultTarget(p, 1)
	tgt.MemWordsPerNode = 1 << 20
	stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New()
	m, err := replay.MachineFor(tgt, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := replay.Run(g, sched, tgt, m)
	if err != nil {
		t.Fatal(err)
	}

	rep := trace.CriticalPath(tr)
	checkPathInvariants(t, rep)
	if rep.MakespanPS != metrics.Makespan {
		t.Fatalf("critical-path makespan %g != machine makespan %g", rep.MakespanPS, metrics.Makespan)
	}
	if sum := tr.Summarize(); rep.MakespanPS != sum.Makespan {
		t.Fatalf("critical-path makespan %g != trace summary makespan %g", rep.MakespanPS, sum.Makespan)
	}
	var total float64
	for _, s := range rep.Segments {
		total += s.AttributedPS
	}
	if diff := math.Abs(total - metrics.Makespan); diff > 1e-6*metrics.Makespan {
		t.Fatalf("segment durations sum to %g, machine makespan %g", total, metrics.Makespan)
	}
	if rep.ByKindPS[trace.KindCompute] <= 0 {
		t.Fatalf("anti-diagonal path attributes no compute time: %+v", rep.ByKindPS)
	}
	if len(rep.Segments) < n {
		t.Fatalf("path through an %dx%d recurrence has only %d segments", n, n, len(rep.Segments))
	}
}
