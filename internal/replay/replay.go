// Package replay executes a mapped computation — an fm function graph
// plus a schedule — on the imperative machine simulator, event by event.
// Where fm.Evaluate prices a mapping analytically (closed-form transit
// and op latencies, no resource dynamics), replay drives the real
// executor: per-node clocks advance, messages contend for NoC links, and
// an optional fault injector perturbs the run with node stalls, link
// spikes, and dropped flits. The result is a space-time trace of what
// the schedule *does* on a (possibly non-ideal) machine, which is what
// the graceful-degradation analysis sweeps.
//
// Replay is deterministic: nodes execute in (time, place, id) order and
// the machine is single-threaded, so the same graph, schedule, target,
// and fault configuration always produce a byte-identical trace.
package replay

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// MachineFor builds a machine whose cost constants match the target, so
// a fault-free replay agrees with fm's analytic pricing of the same
// mapping. faults and tr may be nil. It returns machine.NewChecked's
// error for a target whose technology parameters are invalid.
func MachineFor(tgt fm.Target, faults *fault.Injector, tr *trace.Trace) (*machine.Machine, error) {
	return ObservedMachineFor(tgt, faults, tr, nil)
}

// ObservedMachineFor is MachineFor with a metrics registry attached: the
// machine, its NoC, and the fault injector (if any) all publish into r.
// A nil r is exactly MachineFor — observability never changes the replay.
func ObservedMachineFor(tgt fm.Target, faults *fault.Injector, tr *trace.Trace, r *obs.Registry) (*machine.Machine, error) {
	tgt = tgt.WithDefaults()
	faults.Instrument(r)
	return machine.NewChecked(machine.Config{
		Grid:               tgt.Grid,
		Tech:               tgt.Tech,
		WordBits:           tgt.WordBits,
		MemWordsPerNode:    tgt.MemWordsPerNode,
		RouterDelayPS:      tgt.RouterDelayPS,
		RouterEnergyPerBit: tgt.RouterEnergyPerBit,
		Trace:              tr,
		Faults:             faults,
		Obs:                r,
	})
}

// Run executes g+sched on m and returns the machine's metrics. Each
// value moves once per distinct (producer, consumer place) pair — the
// same dedup rule fm.Evaluate charges — and each operation starts no
// earlier than its scheduled cycle; injected faults can only push events
// later, which is exactly the slippage the caller measures.
func Run(g *fm.Graph, sched fm.Schedule, tgt fm.Target, m *machine.Machine) (machine.Metrics, error) {
	tgt = tgt.WithDefaults()
	if len(sched) != g.NumNodes() {
		return machine.Metrics{}, fmt.Errorf("replay: schedule has %d assignments for %d nodes", len(sched), g.NumNodes())
	}
	for n, a := range sched {
		if !tgt.Grid.Contains(a.Place) {
			return machine.Metrics{}, fmt.Errorf("replay: node %d mapped to %v, outside the target grid", n, a.Place)
		}
		if a.Time < 0 {
			return machine.Metrics{}, fmt.Errorf("replay: node %d scheduled at negative cycle %d", n, a.Time)
		}
	}

	// avail[n] is the actual (possibly fault-delayed) time the value of
	// node n exists at its place, ps.
	avail := make([]float64, g.NumNodes())
	var order []fm.NodeID
	for n := 0; n < g.NumNodes(); n++ {
		id := fm.NodeID(n)
		if g.IsInput(id) {
			avail[n] = float64(sched[n].Time) * tgt.CyclePS
			m.WaitUntil(sched[n].Place, avail[n])
			continue
		}
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := sched[order[i]], sched[order[j]]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Place.Y != b.Place.Y {
			return a.Place.Y < b.Place.Y
		}
		if a.Place.X != b.Place.X {
			return a.Place.X < b.Place.X
		}
		return order[i] < order[j]
	})

	arrivals := make(map[flow]float64)

	for _, id := range order {
		replayNode(g, sched, tgt, m, id, avail, arrivals)
	}
	return m.Metrics(), nil
}

// flow identifies one deduplicated transfer: a value consumed by
// several ops at one place travels there once.
type flow struct {
	producer fm.NodeID
	dst      geom.Point
}

// replayNode executes one scheduled operation: it waits for every
// dependency (sending each distinct (producer, destination) flow
// exactly once), anchors to the mapped cycle, and computes, recording
// the value's actual availability time in avail. This is the replay
// inner loop — once per non-input node per replay, millions of times
// across a degradation sweep — so hotalloc pins its allocation budget
// to the arrivals map alone; the machine calls mutate preallocated
// simulator state.
//
//lint:hotpath
func replayNode(g *fm.Graph, sched fm.Schedule, tgt fm.Target, m *machine.Machine, id fm.NodeID, avail []float64, arrivals map[flow]float64) {
	dst := sched[id].Place
	for _, p := range g.Deps(id) {
		var ready float64
		if sched[p].Place == dst {
			ready = avail[p]
		} else {
			f := flow{p, dst}
			arr, sent := arrivals[f]
			if !sent {
				//lint:allow alloc(simulator boundary: the machine owns its event bookkeeping and may allocate; replayNode itself must not)
				m.WaitUntil(sched[p].Place, avail[p])
				//lint:allow alloc(simulator boundary: Send drives the NoC model, whose contention state may allocate by design)
				arr = m.Send(sched[p].Place, dst, tgt.Words(g.Bits(p)), g.Label(p))
				arrivals[f] = arr
			}
			ready = arr
		}
		//lint:allow alloc(simulator boundary: the machine owns its event bookkeeping and may allocate; replayNode itself must not)
		m.WaitUntil(dst, ready)
	}
	// Anchor to the schedule: never start before the mapped cycle.
	//lint:allow alloc(simulator boundary: the machine owns its event bookkeeping and may allocate; replayNode itself must not)
	m.WaitUntil(dst, float64(sched[id].Time)*tgt.CyclePS)
	//lint:allow alloc(simulator boundary: Compute advances the node clock and trace, which may allocate by design)
	avail[id] = m.Compute(dst, g.Op(id), g.Bits(id), g.Label(id))
}
