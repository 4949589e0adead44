package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/replay"
	"repro/internal/tech"
	"repro/internal/trace"
)

// faultedTrace replays the anti-diagonal mapping with an aggressive
// fault injector and returns the resulting trace, which is guaranteed to
// contain KindFault events.
func faultedTrace(t *testing.T) (*trace.Trace, geom.Grid) {
	t.Helper()
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

	inj, err := fault.New(fault.Config{Seed: 7, Rate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	m, err := replay.MachineFor(tgt, inj, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Run(g, sched, tgt, m); err != nil {
		t.Fatal(err)
	}
	nf := 0
	for _, e := range tr.Events() {
		if e.Kind == trace.KindFault {
			nf++
		}
	}
	if nf == 0 {
		t.Fatal("rate-0.3 replay injected no faults; fixture is useless")
	}
	return tr, tgt.Grid
}

func TestRenderFaultGlyph(t *testing.T) {
	tr, grid := faultedTrace(t)
	out := trace.Render(tr, trace.RenderOptions{
		Grid:    grid,
		Columns: 64,
		Kinds:   []trace.Kind{trace.KindCompute, trace.KindFault},
	})
	if !strings.Contains(out, "F") {
		t.Fatalf("faulted render has no 'F' glyph:\n%s", out)
	}
	// Without KindFault in Kinds, no fault glyph appears.
	plain := trace.Render(tr, trace.RenderOptions{Grid: grid, Columns: 64})
	if strings.Contains(plain, "F") {
		t.Fatalf("compute-only render shows fault glyph:\n%s", plain)
	}
}

func TestRenderFaultGlyphOverridesCount(t *testing.T) {
	// A fault overlapping dense compute must still render as 'F', not as
	// the occupancy digit.
	tr := trace.New()
	p := geom.Pt(0, 0)
	for i := 0; i < 5; i++ {
		tr.Add(trace.Event{Kind: trace.KindCompute, Start: 0, End: 1000, Place: p})
	}
	tr.Add(trace.Event{Kind: trace.KindFault, Start: 0, End: 1000, Place: p, Dst: p})
	out := trace.Render(tr, trace.RenderOptions{
		Grid:    geom.NewGrid(1, 1, 1),
		Columns: 8,
		Kinds:   []trace.Kind{trace.KindCompute, trace.KindFault},
	})
	if !strings.Contains(out, "FFFFFFFF") {
		t.Fatalf("fault row not rendered as F's:\n%s", out)
	}
}

func TestChromeTraceFaultedRoundTrip(t *testing.T) {
	tr, grid := faultedTrace(t)
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, tr, grid); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(events) != tr.Len() {
		t.Fatalf("round-trip lost events: %d emitted, %d recorded", len(events), tr.Len())
	}
	faultCat := 0
	for _, ce := range events {
		cat, _ := ce["cat"].(string)
		if cat == "" {
			t.Fatalf("event missing category: %v", ce)
		}
		if ph, _ := ce["ph"].(string); ph != "X" {
			t.Fatalf("event phase %q, want X", ph)
		}
		if cat == trace.KindFault.String() {
			faultCat++
		}
	}
	if faultCat == 0 {
		t.Fatal("no chrome events carry the fault category")
	}
}
