// Command fmsim evaluates a function + mapping pair on a configurable
// grid target and reports the explicit cost: cycles, energy breakdown,
// bit-hops, memory footprint, and (optionally) an ASCII space-time
// diagram. The built-in functions are the paper's edit-distance
// recurrence and the FFT butterfly; mappings are the paper's
// anti-diagonal, blocked/scattered placements, the default mapper, and
// the serial projection.
//
// With -faults the mapping is additionally replayed on the imperative
// machine simulator under deterministic fault injection (transient node
// stalls, link-delay spikes, dropped-then-retried flits, all reproducible
// from -fault-seed and the rate), reporting the faulted makespan, its
// inflation over the ideal replay, and retry/backoff counts. -slack
// prints the mapping's edge-slack profile: how many cycles of injected
// delay each producer→consumer edge absorbs before causality breaks.
//
// -critpath replays the mapping on the machine simulator and prints the
// critical path through the resulting trace: which kinds of work
// (compute, wire, memory, waiting) the makespan decomposes into.
// -metrics-out writes a JSON document ("fmsim/v1") with the analytic
// cost, the replayed machine metrics, the critical-path attribution, and
// the full observability-registry snapshot — the structured twin of the
// human-readable output. -render additionally prints the NoC
// link-utilization heatmap next to the space-time diagram.
//
// Usage:
//
//	fmsim -func editdist -n 64 -map antidiag -p 8 -render
//	fmsim -func fft -n 256 -map blocked -p 8
//	fmsim -func editdist -n 32 -map serial
//	fmsim -func editdist -n 32 -map antidiag -faults 0.05 -fault-seed 7 -slack
//	fmsim -func editdist -n 32 -map antidiag -critpath -metrics-out metrics.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/algorithms/editdist"
	"repro/internal/algorithms/fft"
	"repro/internal/fault"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/lower"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/tech"
	"repro/internal/trace"
)

func main() {
	fn := flag.String("func", "editdist", "function: editdist | fft")
	n := flag.Int("n", 64, "problem size (editdist: NxN table; fft: transform length, power of two)")
	mapping := flag.String("map", "antidiag", "mapping: antidiag | blocked | scattered | default | serial")
	p := flag.Int("p", 8, "processors (linear array on grid row 0)")
	pitch := flag.Float64("pitch", 0.1, "grid pitch in mm")
	cycle := flag.Float64("cycle", 100, "cycle time in ps")
	render := flag.Bool("render", false, "print an ASCII space-time diagram")
	lowerHW := flag.Bool("lower", false, "mechanically lower the mapping to a PE netlist and print it")
	chrome := flag.String("chrome", "", "write a Chrome trace-event JSON file to this path")
	faultRate := flag.Float64("faults", 0, "fault rate in [0,1]: replay the mapping on the machine simulator with injected stalls/spikes/drops")
	faultSeed := flag.Int64("fault-seed", 1, "fault injection seed; same (seed, rate) reproduces the identical faulted run")
	slack := flag.Bool("slack", false, "print the mapping's edge-slack profile (absorbable fault delay per edge)")
	critpath := flag.Bool("critpath", false, "replay the mapping and print the critical path through the machine trace")
	metricsOut := flag.String("metrics-out", "", "write cost, machine metrics, critical path, and the obs snapshot as JSON to this path")
	flag.Parse()

	tgt := fm.DefaultTarget(maxInt(*p, 1), 1)
	tgt.Grid.PitchMM = *pitch
	tgt.CyclePS = *cycle
	tgt.MemWordsPerNode = 1 << 22

	var g *fm.Graph
	var sched fm.Schedule
	var err error
	switch *fn {
	case "editdist":
		g, sched, err = buildEditDist(*n, *mapping, *p, tgt)
	case "fft":
		g, sched, err = buildFFT(*n, *mapping, *p, tgt)
	default:
		err = fmt.Errorf("unknown function %q", *fn)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmsim: %v\n", err)
		os.Exit(2)
	}

	var tr *trace.Trace
	if *render || *chrome != "" {
		tr = trace.New()
	}
	cost, err := fm.Evaluate(g, sched, tgt, fm.EvalOptions{Trace: tr})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmsim: illegal mapping: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("function: %s (n=%d, %d ops, depth %d)\n", g.Name(), *n, g.CountOps(), g.Depth())
	fmt.Printf("mapping:  %s on %d processor(s), pitch %.2f mm, cycle %.0f ps\n",
		*mapping, *p, *pitch, *cycle)
	fmt.Printf("cost:     %v\n", cost)
	fmt.Printf("comm:     %.1f%% of energy is data movement\n", 100*cost.CommFraction())
	if *slack {
		edges, err := fm.SlackAnalysis(g, sched, tgt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmsim: %v\n", err)
			os.Exit(1)
		}
		s := fm.SummarizeSlack(edges)
		fmt.Printf("slack:    %d edges, min %d / mean %.1f / max %d cycles; %d causality-critical\n",
			s.Edges, s.Min, s.Mean, s.Max, s.Critical)
	}
	if *faultRate > 0 {
		if err := replayFaulted(g, sched, tgt, *faultRate, *faultSeed); err != nil {
			fmt.Fprintf(os.Stderr, "fmsim: %v\n", err)
			os.Exit(1)
		}
	}
	if *render {
		fmt.Println(trace.Render(tr, trace.RenderOptions{Grid: tgt.Grid, Columns: 72}))
	}
	if *render || *critpath || *metricsOut != "" {
		if err := replayObserved(g, sched, tgt, cost, *fn, *mapping, *n, *p,
			*render, *critpath, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "fmsim: %v\n", err)
			os.Exit(1)
		}
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmsim: %v\n", err)
			os.Exit(2)
		}
		if err := trace.WriteChromeTrace(f, tr, tgt.Grid); err != nil {
			fmt.Fprintf(os.Stderr, "fmsim: %v\n", err)
			os.Exit(2)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "fmsim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("chrome trace written to %s (open in ui.perfetto.dev)\n", *chrome)
	}
	if *lowerHW {
		arch, err := lower.Lower(g, sched, tgt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n%s", arch.Summary(), arch.Verilog())
	}
}

// metricsDoc is the -metrics-out JSON document.
type metricsDoc struct {
	Schema   string `json:"schema"`
	Function string `json:"function"`
	Mapping  string `json:"mapping"`
	N        int    `json:"n"`
	P        int    `json:"p"`
	// Cost is the analytic fm.Evaluate price of the mapping.
	Cost fm.Cost `json:"cost"`
	// ReplayMakespanPS and ReplayEnergyFJ come from the machine replay.
	ReplayMakespanPS float64 `json:"replay_makespan_ps"`
	ReplayEnergyFJ   float64 `json:"replay_energy_fj"`
	// CriticalPath attributes the replayed makespan.
	CriticalPath critpathDoc `json:"critical_path"`
	// Obs is the full metrics-registry snapshot of the replay.
	Obs obs.Snapshot `json:"obs"`
}

type critpathDoc struct {
	MakespanPS float64            `json:"makespan_ps"`
	WaitPS     float64            `json:"wait_ps"`
	ByKindPS   map[string]float64 `json:"by_kind_ps"`
	Segments   int                `json:"segments"`
}

// replayObserved runs the mapping on the instrumented machine simulator
// (fault-free) and emits the observability artifacts: the link heatmap
// (-render), the critical-path report (-critpath), and the JSON metrics
// document (-metrics-out).
func replayObserved(g *fm.Graph, sched fm.Schedule, tgt fm.Target, cost fm.Cost,
	fn, mapping string, n, p int, render, critpath bool, metricsOut string) error {
	reg := obs.New()
	rtr := trace.New()
	m, err := replay.ObservedMachineFor(tgt, nil, rtr, reg)
	if err != nil {
		return err
	}
	met, err := replay.Run(g, sched, tgt, m)
	if err != nil {
		return err
	}
	rep := trace.CriticalPath(rtr)
	if render {
		fmt.Println(m.Network().RenderLinkHeatmap())
	}
	if critpath {
		fmt.Printf("critical path: %d segments explain the %.0f ps replayed makespan\n",
			len(rep.Segments), rep.MakespanPS)
		for k := 0; k < trace.NumKinds; k++ {
			kind := trace.Kind(k)
			if ps := rep.ByKindPS[kind]; ps > 0 {
				fmt.Printf("  %-9s %10.0f ps  (%4.1f%%)\n", kind, ps, 100*ps/rep.MakespanPS)
			}
		}
		if rep.WaitPS > 0 {
			fmt.Printf("  %-9s %10.0f ps  (%4.1f%%)\n", "waiting", rep.WaitPS, 100*rep.WaitPS/rep.MakespanPS)
		}
	}
	if metricsOut != "" {
		byKind := make(map[string]float64, len(rep.ByKindPS))
		for k, v := range rep.ByKindPS {
			byKind[k.String()] = v
		}
		doc := metricsDoc{
			Schema: "fmsim/v1", Function: fn, Mapping: mapping, N: n, P: p,
			Cost:             cost,
			ReplayMakespanPS: met.Makespan, ReplayEnergyFJ: met.TotalEnergy,
			CriticalPath: critpathDoc{
				MakespanPS: rep.MakespanPS, WaitPS: rep.WaitPS,
				ByKindPS: byKind, Segments: len(rep.Segments),
			},
			Obs: reg.Snapshot(),
		}
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
	return nil
}

// replayFaulted runs the mapping twice on the machine simulator — once
// ideal, once with the injector — and prints the degradation.
func replayFaulted(g *fm.Graph, sched fm.Schedule, tgt fm.Target, rate float64, seed int64) error {
	run := func(inj *fault.Injector) (machine.Metrics, error) {
		m, err := replay.MachineFor(tgt, inj, nil)
		if err != nil {
			return machine.Metrics{}, err
		}
		return replay.Run(g, sched, tgt, m)
	}
	base, err := run(nil)
	if err != nil {
		return err
	}
	inj, err := fault.New(fault.Config{Seed: seed, Rate: rate})
	if err != nil {
		return err
	}
	got, err := run(inj)
	if err != nil {
		return err
	}
	fs := got.Faults
	fmt.Printf("faults:   rate %.3f seed %d: %d stalls, %d spikes, %d drops (%d retries, %.0f ps backoff)\n",
		rate, seed, fs.Stalls, fs.Spikes, fs.Drops, fs.Retries, fs.BackoffPS)
	fmt.Printf("          makespan %.0f ps -> %.0f ps (%.3fx), energy %.0f fJ -> %.0f fJ\n",
		base.Makespan, got.Makespan, got.Makespan/base.Makespan, base.TotalEnergy, got.TotalEnergy)
	return nil
}

func buildEditDist(n int, mapping string, p int, tgt fm.Target) (*fm.Graph, fm.Schedule, error) {
	r := make([]byte, n)
	q := make([]byte, n)
	g, dom, err := editdist.Recurrence(r, q).Materialize()
	if err != nil {
		return nil, nil, err
	}
	switch mapping {
	case "antidiag":
		stride, err := fm.MinAntiDiagonalStrideChecked(tgt, tech.OpAdd, 32, n, p)
		if err != nil {
			return nil, nil, err
		}
		sched, err := fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
		if err != nil {
			return nil, nil, err
		}
		return g, sched, nil
	case "serial":
		return g, fm.SerialSchedule(g, tgt, geom.Pt(0, 0)), nil
	case "default":
		return g, fm.ListSchedule(g, tgt), nil
	default:
		return nil, nil, fmt.Errorf("editdist supports antidiag|serial|default, not %q", mapping)
	}
}

func buildFFT(n int, mapping string, p int, tgt fm.Target) (*fm.Graph, fm.Schedule, error) {
	bf := fft.BuildButterfly(n)
	var place []geom.Point
	switch mapping {
	case "blocked":
		place = bf.BlockedPlacement(p, tgt.Grid)
	case "scattered":
		place = bf.CyclicPlacement(p, tgt.Grid)
	case "serial":
		place = bf.SerialPlacement(tgt.Grid)
	case "default":
		return bf.Graph, fm.ListSchedule(bf.Graph, tgt), nil
	default:
		return nil, nil, fmt.Errorf("fft supports blocked|scattered|serial|default, not %q", mapping)
	}
	return bf.Graph, fm.ASAPSchedule(bf.Graph, place, tgt), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
