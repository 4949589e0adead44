package replay

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/trace"
)

func obsFixture(t *testing.T, n, p int) (*fm.Graph, fm.Schedule, fm.Target) {
	t.Helper()
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
	return g, sched, tgt
}

// TestObservabilityDoesNotChangeReplay is the acceptance check: the same
// replay with a nil registry and with a live one must produce identical
// metrics and a byte-for-byte identical trace (faulted or not).
func TestObservabilityDoesNotChangeReplay(t *testing.T) {
	g, sched, tgt := obsFixture(t, 8, 4)
	for _, rate := range []float64{0, 0.25} {
		run := func(r *obs.Registry) (string, string) {
			var inj *fault.Injector
			if rate > 0 {
				var err error
				if inj, err = fault.New(fault.Config{Seed: 11, Rate: rate}); err != nil {
					t.Fatal(err)
				}
			}
			tr := trace.New()
			m, err := ObservedMachineFor(tgt, inj, tr, r)
			if err != nil {
				t.Fatal(err)
			}
			met, err := Run(g, sched, tgt, m)
			if err != nil {
				t.Fatal(err)
			}
			return trace.ChromeTraceString(tr, tgt.Grid), formatMetrics(met)
		}
		traceOff, metOff := run(nil)
		traceOn, metOn := run(obs.New())
		if traceOff != traceOn {
			t.Fatalf("rate %g: observability changed the trace", rate)
		}
		if metOff != metOn {
			t.Fatalf("rate %g: observability changed metrics:\n%s\nvs\n%s", rate, metOff, metOn)
		}
	}
}

// TestObsCountsMatchMetrics checks the registry against the machine's own
// accounting: per-kind event counts equal the trace summary, per-kind
// energy equals Metrics().EnergyByKind, and fault counters equal the
// injector's stats.
func TestObsCountsMatchMetrics(t *testing.T) {
	g, sched, tgt := obsFixture(t, 8, 4)
	inj, err := fault.New(fault.Config{Seed: 3, Rate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.New()
	tr := trace.New()
	m, err := ObservedMachineFor(tgt, inj, tr, r)
	if err != nil {
		t.Fatal(err)
	}
	met, err := Run(g, sched, tgt, m)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	sum := tr.Summarize()

	for k := 0; k < trace.NumKinds; k++ {
		kind := trace.Kind(k)
		name := kind.String()
		// Wire events are recorded by the NoC, not machine.record; fault
		// events come from both the machine (stalls) and the NoC (spikes,
		// drops), so only machine-recorded kinds are compared here.
		if kind == trace.KindWire || kind == trace.KindFault {
			continue
		}
		if got, want := snap.Counters["machine.events."+name], int64(sum.CountByKind[kind]); got != want {
			t.Errorf("machine.events.%s = %d, trace says %d", name, got, want)
		}
		if got, want := snap.Gauges["machine.energy_fj."+name], met.EnergyByKind[kind]; got != want {
			t.Errorf("machine.energy_fj.%s = %g, metrics say %g", name, got, want)
		}
	}
	if got := snap.Counters["noc.messages"]; got != met.Messages {
		t.Errorf("noc.messages = %d, metrics say %d", got, met.Messages)
	}
	fs := inj.Stats()
	if got := snap.Counters["fault.stalls"]; got != fs.Stalls {
		t.Errorf("fault.stalls = %d, injector says %d", got, fs.Stalls)
	}
	if got := snap.Counters["fault.drops"]; got != fs.Drops {
		t.Errorf("fault.drops = %d, injector says %d", got, fs.Drops)
	}
	if got := snap.Counters["fault.retries"]; got != fs.Retries {
		t.Errorf("fault.retries = %d, injector says %d", got, fs.Retries)
	}
	if got := snap.Gauges["fault.injected_ps"]; got != fs.InjectedPS() {
		t.Errorf("fault.injected_ps = %g, injector says %g", got, fs.InjectedPS())
	}
	if fs.Events() == 0 {
		t.Error("fixture injected no faults; counters unexercised")
	}
}

// formatMetrics renders metrics for equality comparison; fmt prints map
// keys in sorted order, so the rendering is deterministic.
func formatMetrics(m machine.Metrics) string { return fmt.Sprintf("%+v", m) }
