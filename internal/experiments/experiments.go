// Package experiments regenerates every quantitative claim of the panel
// paper. The paper is a position piece with no numbered tables or
// figures, so the artifact list is the set of claims C1..C12 catalogued
// in DESIGN.md; each experiment here rebuilds one claim from the
// simulators and reports paper-value versus measured-value in a table.
// cmd/panelbench prints all of them; EXPERIMENTS.md records a reference
// run; BenchmarkExperiments times each one as it runs here.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Trace-kind shorthands used when picking energies out of machine metrics.
const (
	traceWire     = trace.KindWire
	traceOverhead = trace.KindOverhead
)

// Metric is one numeric performance measurement attached to a result.
// Unlike table rows (formatted strings for humans), metrics are machine
// citable: cmd/benchcheck compares them across runs against the
// committed BENCH_panel.json baseline.
type Metric struct {
	// Name identifies the metric within its experiment (unique per result).
	Name string `json:"name"`
	// Value is the measured number.
	Value float64 `json:"value"`
	// Unit labels Value ("moves/sec", "ratio", ...).
	Unit string `json:"unit"`
	// Better is "higher" or "lower": the direction of improvement.
	Better string `json:"better"`
	// RelTol, when positive, makes the metric a gate: a run whose value
	// is worse than the baseline's by more than this relative fraction
	// fails the baseline comparison. Zero means informational only —
	// recorded and reported, never gating. Wall-clock absolutes should
	// stay informational (hosts differ); host-normalized ratios gate.
	RelTol float64 `json:"rel_tol,omitempty"`
}

// Regressed reports whether candidate regresses from baseline in m's
// Better direction by more than m.RelTol (false for informational
// metrics). m supplies the direction and tolerance; improvements of any
// size never regress.
func (m Metric) Regressed(baseline, candidate float64) bool {
	if m.RelTol <= 0 {
		return false
	}
	switch m.Better {
	case "lower":
		return candidate > baseline*(1+m.RelTol)
	default: // "higher"
		return candidate < baseline*(1-m.RelTol)
	}
}

// Result is one experiment's reproduction outcome.
type Result struct {
	// ID is the experiment identifier (E1..E12).
	ID string
	// Claim quotes or paraphrases the paper statement being reproduced.
	Claim string
	// Table carries the paper-vs-measured rows.
	Table *stats.Table
	// Pass reports whether every row landed within its tolerance.
	Pass bool
	// Notes explains substitutions, tolerances, or caveats.
	Notes []string
	// Metrics carries machine-comparable measurements (optional).
	Metrics []Metric
}

// WriteTo renders the result. It implements io.WriterTo.
func (r Result) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "\n--- %s: %s ---\n", r.ID, r.Claim)
	total += int64(n)
	if err != nil {
		return total, err
	}
	m, err := r.Table.WriteTo(w)
	total += m
	if err != nil {
		return total, err
	}
	for _, note := range r.Notes {
		n, err = fmt.Fprintf(w, "note: %s\n", note)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for _, m := range r.Metrics {
		gate := "informational"
		if m.RelTol > 0 {
			gate = fmt.Sprintf("gated at %.0f%%", m.RelTol*100)
		}
		n, err = fmt.Fprintf(w, "metric: %s = %g %s (%s is better; %s)\n", m.Name, m.Value, m.Unit, m.Better, gate)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	n, err = fmt.Fprintf(w, "verdict: %s\n", verdict)
	total += int64(n)
	return total, err
}

// Experiment is a registered reproduction.
type Experiment struct {
	ID   string
	Name string
	Run  func() Result
}

// All returns every experiment in order. E8 measures wall-clock
// parallelism on real goroutines; everything else is deterministic.
func All() []Experiment {
	return []Experiment{
		{"E1", "5nm energy ratios (wire/diagonal/off-chip vs add)", E1},
		{"E2", "CPU instruction-delivery overhead", E2},
		{"E3", "edit-distance F&M mapping", E3},
		{"E4", "FFT function x mapping space", E4},
		{"E5", "systematic mapping search", E5},
		{"E6", "modular composition and remapping", E6},
		{"E7", "default mapper vs serial abstraction", E7},
		{"E8", "work-span model on real cores", E8},
		{"E9", "cache-oblivious algorithms across levels", E9},
		{"E10", "PRAM / XMT work-time framework", E10},
		{"E11", "communication-avoiding matmul and collectives", E11},
		{"E12", "model extensions: read/write asymmetry, many-core headroom", E12},
		{"E13", "full-stack verification of functions and mappings", E13},
		{"E14", "accelerator dataflows: weight- vs output-stationary", E14},
		{"E15", "recompute vs communicate", E15},
		{"E16", "mechanical lowering to a domain-specific architecture", E16},
		{"E17", "2-D systolic matmul array with explicit forwarding", E17},
		{"E18", "stencil halo exchange: surface vs volume", E18},
		{"E19", "fault injection: graceful degradation of mappings", E19},
		{"E20", "delta-evaluation anneal hot path: moves/sec and equivalence", E20},
	}
}

// verdict formats a within-tolerance check for a table cell.
func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}
