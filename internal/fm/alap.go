package fm

import (
	"fmt"

	"repro/internal/geom"
)

// ALAPScheduleChecked derives the latest legal start times for a fixed
// placement such that every output is complete (and delivered nowhere
// later than) the given deadline cycle: the mirror image of
// ASAPSchedule. Issue-slot conflicts are resolved by stepping earlier,
// so the result is legal whenever the deadline is achievable; it
// returns an error if the deadline is too tight for the critical path
// (use ASAP's makespan as a lower bound) or the placement is malformed.
//
// ASAP and ALAP together give each operation's slack — the scheduling
// freedom a mapping search can spend on energy or storage without
// touching the makespan.
func ALAPScheduleChecked(g *Graph, place []geom.Point, tgt Target, deadline int64) (Schedule, error) {
	if len(place) != g.NumNodes() {
		return nil, fmt.Errorf("fm: %d placements for %d nodes", len(place), g.NumNodes())
	}
	tgt = tgt.withDefaults()
	sched := make(Schedule, g.NumNodes())
	// latestStart[n] is the latest cycle n may start (inputs: be available).
	latestStart := make([]int64, g.NumNodes())
	for n := range latestStart {
		id := NodeID(n)
		if g.IsInput(id) {
			latestStart[n] = deadline
		} else {
			latestStart[n] = deadline - tgt.OpCycles(g.Op(id), g.Bits(id))
		}
	}
	// Reverse topological pass, interleaving producer tightening with
	// issue-slot resolution: when node n is processed, every consumer
	// already holds its FINAL (possibly conflict-shifted) start time and
	// has tightened latestStart[n] accordingly.
	taken := make(map[Assignment]bool)
	for n := g.NumNodes() - 1; n >= 0; n-- {
		id := NodeID(n)
		t := latestStart[n]
		if g.IsInput(id) {
			sched[n] = Assignment{Place: place[n], Time: t}
			continue
		}
		for taken[Assignment{Place: place[n], Time: t}] {
			t--
		}
		if t < 0 {
			return nil, fmt.Errorf("fm: deadline %d infeasible for node %d", deadline, n)
		}
		a := Assignment{Place: place[n], Time: t}
		taken[a] = true
		sched[n] = a
		for _, p := range g.Deps(id) {
			need := t - tgt.TransitCycles(place[p].Manhattan(place[n]))
			if !g.IsInput(p) {
				need -= tgt.OpCycles(g.Op(p), g.Bits(p))
			}
			if need < latestStart[p] {
				latestStart[p] = need
			}
		}
	}
	for n := range sched {
		if sched[n].Time < 0 {
			return nil, fmt.Errorf("fm: deadline %d infeasible for node %d", deadline, n)
		}
	}
	return sched, nil
}

// Slack returns, per node, the scheduling freedom under the given
// placement: ALAP start minus ASAP start when the deadline is exactly
// the ASAP schedule's completion. Zero-slack nodes form the critical
// path; everything else can slide to save energy or storage. It returns
// ALAPScheduleChecked's error if the ALAP pass fails.
func Slack(g *Graph, place []geom.Point, tgt Target) ([]int64, error) {
	tgt = tgt.withDefaults()
	asap := ASAPSchedule(g, place, tgt)
	// Completion: last finish or arrival.
	var deadline int64
	for n := 0; n < g.NumNodes(); n++ {
		if f := finishTime(g, asap, tgt, NodeID(n)); f > deadline {
			deadline = f
		}
	}
	alap, err := ALAPScheduleChecked(g, place, tgt, deadline)
	if err != nil {
		return nil, err
	}
	out := make([]int64, g.NumNodes())
	for n := range out {
		out[n] = alap[n].Time - asap[n].Time
	}
	return out, nil
}
