// Package deltacheck is the differential-testing layer for the delta
// evaluator: a drop-in replacement for fm.DeltaEvaluator that replays
// every operation — Reset, every proposed move (accepted or rejected),
// every snapshot — against the full evaluator (ASAPSchedule +
// fm.Evaluate) and fails loudly on any divergence, down to the last
// float bit.
//
// An incremental evaluator that silently drifts corrupts every search
// result downstream, so correctness is pinned two ways: unit and fuzz
// tests in this package drive the Checker directly, and building the
// search package with -tags deltacheck swaps the Checker into the
// anneal hot path, turning the entire existing determinism and property
// suite into a differential test of delta pricing.
package deltacheck

import (
	"fmt"
	"math"

	"repro/internal/fm"
	"repro/internal/geom"
)

// Checker wraps an fm.DeltaEvaluator and mirrors its committed state as
// a plain placement, so every incremental answer can be recomputed from
// scratch and compared. It implements the same move-pricing surface the
// search hot path uses. Not safe for concurrent use.
type Checker struct {
	g   *fm.Graph
	tgt fm.Target
	d   *fm.DeltaEvaluator

	place   []geom.Point // committed placement, the reference state
	pending bool
	pn      fm.NodeID
	pto     geom.Point
	pwant   fm.Cost // the full evaluator's cost of the pending move
}

// New builds a Checker for g on tgt.
func New(g *fm.Graph, tgt fm.Target) (*Checker, error) {
	d, err := fm.NewDeltaEvaluator(g, tgt)
	if err != nil {
		return nil, err
	}
	return &Checker{g: g, tgt: tgt, d: d, place: make([]geom.Point, g.NumNodes())}, nil
}

// Reset prices sched through the delta evaluator, re-prices it through
// fm.Evaluate, and errors on any difference.
func (c *Checker) Reset(sched fm.Schedule) (fm.Cost, error) {
	got, err := c.d.Reset(sched)
	if err != nil {
		return fm.Cost{}, err
	}
	want, err := fm.Evaluate(c.g, sched, c.tgt, fm.EvalOptions{SkipCheck: true})
	if err != nil {
		return fm.Cost{}, fmt.Errorf("deltacheck: full evaluator rejected a schedule the delta evaluator accepted: %w", err)
	}
	if diff := diffCosts(got, want); diff != "" {
		return fm.Cost{}, fmt.Errorf("deltacheck: Reset diverges from Evaluate: %s", diff)
	}
	for i := range sched {
		c.place[i] = sched[i].Place
	}
	c.pending = false
	return got, nil
}

// ProposeChecked prices the move through the delta evaluator and
// against a from-scratch ASAP re-timing plus full evaluation, returning
// an error describing the first differing cost field, if any.
func (c *Checker) ProposeChecked(n fm.NodeID, to geom.Point) (fm.Cost, error) {
	got := c.d.Propose(n, to)
	want, err := c.full(n, to)
	if err != nil {
		return fm.Cost{}, err
	}
	if diff := diffCosts(got, want); diff != "" {
		return fm.Cost{}, fmt.Errorf("deltacheck: move of node %d %v->%v diverges: %s", n, c.place[n], to, diff)
	}
	c.pending, c.pn, c.pto, c.pwant = true, n, to, want
	return got, nil
}

// proposeCyclesChecked is ProposeChecked for the makespan-only
// proposal: the delta evaluator's makespan must equal the full
// evaluator's Cycles, and Commit later checks the rest of the cost.
func (c *Checker) proposeCyclesChecked(n fm.NodeID, to geom.Point) (int64, error) {
	got := c.d.ProposeCycles(n, to)
	want, err := c.full(n, to)
	if err != nil {
		return 0, err
	}
	if got != want.Cycles {
		return 0, fmt.Errorf("deltacheck: makespan of moving node %d %v->%v is %d, full evaluator %d", n, c.place[n], to, got, want.Cycles)
	}
	c.pending, c.pn, c.pto, c.pwant = true, n, to, want
	return got, nil
}

// full prices the committed placement with node n moved to to, through
// ASAPSchedule and fm.Evaluate.
func (c *Checker) full(n fm.NodeID, to geom.Point) (fm.Cost, error) {
	old := c.place[n]
	c.place[n] = to
	want, err := fm.Evaluate(c.g, fm.ASAPSchedule(c.g, c.place, c.tgt), c.tgt, fm.EvalOptions{SkipCheck: true})
	c.place[n] = old
	if err != nil {
		return fm.Cost{}, fmt.Errorf("deltacheck: full evaluator failed on proposed move: %w", err)
	}
	return want, nil
}

// commitChecked promotes the last proposal in both the delta evaluator
// and the reference placement, then checks the committed cost, which
// Commit completes after a makespan-only proposal, against the full
// evaluator's.
func (c *Checker) commitChecked() error {
	c.d.Commit()
	if !c.pending {
		return nil
	}
	c.place[c.pn] = c.pto
	c.pending = false
	if diff := diffCosts(c.d.Cost(), c.pwant); diff != "" {
		return fmt.Errorf("deltacheck: committed cost of moving node %d to %v diverges: %s", c.pn, c.pto, diff)
	}
	return nil
}

// Propose is ProposeChecked for callers on the search hot path, which
// has no error channel for a single move.
func (c *Checker) Propose(n fm.NodeID, to geom.Point) fm.Cost {
	cost, err := c.ProposeChecked(n, to)
	mustAgree(err)
	return cost
}

// ProposeCycles is the checked makespan-only proposal for the search
// hot path.
func (c *Checker) ProposeCycles(n fm.NodeID, to geom.Point) int64 {
	cyc, err := c.proposeCyclesChecked(n, to)
	mustAgree(err)
	return cyc
}

// Commit is the checked Commit for the search hot path.
func (c *Checker) Commit() { mustAgree(c.commitChecked()) }

// Cost returns the committed cost.
func (c *Checker) Cost() fm.Cost { return c.d.Cost() }

// Snapshot copies out the committed schedule, verifying it against an
// independently rebuilt ASAP schedule of the reference placement.
func (c *Checker) Snapshot(dst fm.Schedule) fm.Schedule {
	dst = c.d.Snapshot(dst)
	want := fm.ASAPSchedule(c.g, c.place, c.tgt)
	for i := range want {
		if dst[i] != want[i] {
			mustAgree(fmt.Errorf("deltacheck: snapshot[%d] = %+v, want %+v", i, dst[i], want[i]))
		}
	}
	return dst
}

// mustAgree aborts the run on a delta-vs-full divergence: the search hot
// path and Snapshot have no error channel.
func mustAgree(err error) {
	if err != nil {
		//lint:allow panic(differential-harness invariant: a delta-vs-full divergence must abort the run, and the hot path has no error channel)
		panic(err)
	}
}

// diffCosts reports the fields where a and b differ at the bit level,
// or "" when identical. Floats compare by bit pattern: the delta
// evaluator promises Evaluate's exact accumulation, not an approximation
// of it.
func diffCosts(a, b fm.Cost) string {
	var diff string
	addInt := func(name string, x, y int64) {
		if x != y {
			diff += fmt.Sprintf(" %s=%d(full %d)", name, x, y)
		}
	}
	addF := func(name string, x, y float64) {
		if math.Float64bits(x) != math.Float64bits(y) {
			diff += fmt.Sprintf(" %s=%v(full %v, bits %#x vs %#x)", name, x, y, math.Float64bits(x), math.Float64bits(y))
		}
	}
	addInt("Cycles", a.Cycles, b.Cycles)
	addF("TimePS", a.TimePS, b.TimePS)
	addF("EnergyFJ", a.EnergyFJ, b.EnergyFJ)
	addF("ComputeEnergy", a.ComputeEnergy, b.ComputeEnergy)
	addF("WireEnergy", a.WireEnergy, b.WireEnergy)
	addF("OffChipEnergy", a.OffChipEnergy, b.OffChipEnergy)
	addInt("BitHops", a.BitHops, b.BitHops)
	addInt("Messages", a.Messages, b.Messages)
	addInt("PeakWordsPerNode", int64(a.PeakWordsPerNode), int64(b.PeakWordsPerNode))
	addInt("PlacesUsed", int64(a.PlacesUsed), int64(b.PlacesUsed))
	addInt("Ops", int64(a.Ops), int64(b.Ops))
	return diff
}
