// Package machine simulates the spatial computing engine the panel paper
// argues modern silicon actually is: a grid of processors, each with a
// local memory tile, connected by a mesh NoC, with a bulk-memory (DRAM)
// layer underneath — "location can be discretized onto a grid of two or
// more dimensions; the delay and energy of bulk memory can be modeled by
// adding a layer to the grid" (Dally, section 3).
//
// The machine plays two roles. As an executor it advances per-node clocks
// as operations, memory accesses, and messages are issued, producing a
// deterministic space-time trace. As a cost oracle it answers "what would
// this op / this transfer cost" queries for the F&M legality checker and
// mapping search without mutating any state.
package machine

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/trace"
)

// Config parameterizes a machine.
type Config struct {
	// Grid is the processor grid and its physical pitch.
	Grid geom.Grid
	// Tech supplies all energy/delay constants.
	Tech tech.Params
	// WordBits is the machine word width. Defaults to 32.
	WordBits int
	// MemWordsPerNode is the capacity of each node's local memory tile,
	// in words. Defaults to 16384. The F&M legality checker uses this as
	// the storage bound for values in transit and at rest.
	MemWordsPerNode int
	// CPUOverhead, when true, charges the conventional-CPU
	// instruction-delivery overhead (fetch/decode/rename/issue/ROB) on
	// every compute operation. This models the paper's "10,000x" claim
	// about hiding parallelism behind a serial instruction stream.
	CPUOverhead bool
	// NoCMode selects the switching discipline (ablation A2).
	NoCMode noc.Mode
	// RouterDelayPS and RouterEnergyPerBit pass through to the NoC
	// (zero = NoC default, negative = explicitly zero / ideal router).
	RouterDelayPS      float64
	RouterEnergyPerBit float64
	// Trace, if non-nil, records every event.
	Trace *trace.Trace
	// Faults, if non-nil and enabled, injects deterministic transient
	// node stalls before compute/memory/off-chip events, and is passed
	// through to the NoC for link spikes and dropped flits. Same (seed,
	// rate) ⇒ identical faulted trace; rate 0 ⇒ bit-for-bit the
	// fault-free trace.
	Faults *fault.Injector
	// Obs, if non-nil, receives per-kind event counts, energy, and busy
	// time under "machine.*" names, and is passed through to the NoC.
	// Observability never changes what the machine computes: a nil
	// registry and an attached one produce byte-identical traces.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.WordBits == 0 {
		c.WordBits = 32
	}
	if c.MemWordsPerNode == 0 {
		c.MemWordsPerNode = 16384
	}
	return c
}

// Machine is a deterministic single-threaded simulator. Not safe for
// concurrent use.
type Machine struct {
	cfg Config
	net *noc.Network

	nodeTime []float64 // per-node local clock, ps

	energyByKind map[trace.Kind]float64
	opCount      int64
	memCount     int64
	offChipCount int64
	lastArrival  float64

	// Per-kind instruments, resolved once at construction. All remain
	// nil (and their methods no-ops) when no registry is configured, so
	// the uninstrumented path costs one nil check per event.
	obsEvents [trace.NumKinds]*obs.Counter
	obsEnergy [trace.NumKinds]*obs.Gauge
	obsBusy   [trace.NumKinds]*obs.Gauge
}

// NewChecked returns a machine over the configured grid, validating the
// technology parameters and NoC mode up front.
func NewChecked(cfg Config) (*Machine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Tech.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{
		cfg:          cfg,
		energyByKind: make(map[trace.Kind]float64),
		nodeTime:     make([]float64, cfg.Grid.Nodes()),
	}
	net, err := noc.NewChecked(noc.Config{
		Grid:               cfg.Grid,
		Tech:               cfg.Tech,
		Mode:               cfg.NoCMode,
		RouterDelayPS:      cfg.RouterDelayPS,
		RouterEnergyPerBit: cfg.RouterEnergyPerBit,
		Trace:              cfg.Trace,
		Faults:             cfg.Faults,
		Obs:                cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m.net = net
	if cfg.Obs.Enabled() {
		for k := 0; k < trace.NumKinds; k++ {
			name := trace.Kind(k).String()
			m.obsEvents[k] = cfg.Obs.Counter("machine.events." + name)
			m.obsEnergy[k] = cfg.Obs.Gauge("machine.energy_fj." + name)
			m.obsBusy[k] = cfg.Obs.Gauge("machine.busy_ps." + name)
		}
	}
	return m, nil
}

// Config returns the machine's (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Network exposes the underlying NoC for traffic statistics.
func (m *Machine) Network() *noc.Network { return m.net }

// Now returns node p's local clock.
func (m *Machine) Now(p geom.Point) float64 {
	return m.nodeTime[m.cfg.Grid.ID(p)]
}

// WaitUntil advances node p's clock to at least t (e.g. to the arrival
// time of a message it must consume).
func (m *Machine) WaitUntil(p geom.Point, t float64) {
	id := m.cfg.Grid.ID(p)
	if t > m.nodeTime[id] {
		m.nodeTime[id] = t
	}
}

func (m *Machine) record(k trace.Kind, start, end float64, p, dst geom.Point, energy float64, bits int, tag string) {
	m.energyByKind[k] += energy
	if end > m.lastArrival {
		m.lastArrival = end
	}
	m.obsEvents[k].Inc()
	m.obsEnergy[k].Add(energy)
	m.obsBusy[k].Add(end - start)
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Add(trace.Event{
			Kind: k, Start: start, End: end, Place: p, Dst: dst,
			Energy: energy, Bits: bits, Tag: tag,
		})
	}
}

// stall applies an injected transient stall (if the node's fault
// schedule faults) before the next event at node id, advancing its clock
// and recording a zero-energy fault event.
func (m *Machine) stall(id int, p geom.Point) {
	if !m.cfg.Faults.Enabled() {
		return
	}
	ps := m.cfg.Faults.Stall(id)
	if ps <= 0 {
		return
	}
	start := m.nodeTime[id]
	m.nodeTime[id] = start + ps
	m.record(trace.KindFault, start, start+ps, p, p, 0, 0, "stall")
}

// Compute executes one operation of the given class at node p, starting
// at the node's current clock, and returns its completion time. If the
// machine models a conventional CPU (CPUOverhead), the instruction
// delivery overhead is charged as a separate overhead event.
func (m *Machine) Compute(p geom.Point, class tech.OpClass, bits int, tag string) float64 {
	id := m.cfg.Grid.ID(p)
	m.stall(id, p)
	start := m.nodeTime[id]
	delay := m.cfg.Tech.OpDelay(class, bits)
	end := start + delay
	m.nodeTime[id] = end
	m.record(trace.KindCompute, start, end, p, p, m.cfg.Tech.OpEnergy(class, bits), bits, tag)
	if m.cfg.CPUOverhead {
		m.record(trace.KindOverhead, start, end, p, p, m.cfg.Tech.InstrOverheadEnergy, bits, tag)
	}
	m.opCount++
	return end
}

// MemAccess reads or writes words machine words in node p's local memory
// tile and returns the completion time. Only the bit-cell energy is
// charged here; reaching a *remote* tile requires an explicit Send, which
// is where the real cost lives — exactly the paper's point.
func (m *Machine) MemAccess(p geom.Point, words int, tag string) float64 {
	if words <= 0 {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: a non-positive word count is a caller bug)
		panic(fmt.Sprintf("machine: invalid access of %d words", words))
	}
	id := m.cfg.Grid.ID(p)
	m.stall(id, p)
	start := m.nodeTime[id]
	bits := words * m.cfg.WordBits
	end := start + m.cfg.Tech.SRAMDelay
	m.nodeTime[id] = end
	m.record(trace.KindMemory, start, end, p, p, m.cfg.Tech.SRAMEnergy(bits), bits, tag)
	m.memCount++
	return end
}

// Send moves words machine words from node src to node dst through the
// NoC, injecting at src's current clock. It returns the arrival time at
// dst. The destination's clock is NOT advanced: receivers that depend on
// the data call WaitUntil(dst, arrival). A self-send is free.
func (m *Machine) Send(src, dst geom.Point, words int, tag string) float64 {
	if words <= 0 {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: a non-positive word count is a caller bug)
		panic(fmt.Sprintf("machine: invalid send of %d words", words))
	}
	bits := words * m.cfg.WordBits
	t0 := m.Now(src)
	arrival, _ := m.net.Send(t0, src, dst, bits)
	if arrival > m.lastArrival {
		m.lastArrival = arrival
	}
	return arrival
}

// edgeDistMM returns the physical distance from p to the nearest chip
// edge, the wire a value must traverse to reach an off-chip interface.
func (m *Machine) edgeDistMM(p geom.Point) float64 {
	g := m.cfg.Grid
	d := p.X
	if v := g.Width - 1 - p.X; v < d {
		d = v
	}
	if p.Y < d {
		d = p.Y
	}
	if v := g.Height - 1 - p.Y; v < d {
		d = v
	}
	return float64(d) * g.PitchMM
}

// OffChip performs an off-chip (DRAM-layer) access of words machine words
// from node p: on-chip wire to the nearest edge, then the off-chip
// interface. It advances p's clock to the completion time and returns it.
func (m *Machine) OffChip(p geom.Point, words int, tag string) float64 {
	if words <= 0 {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: a non-positive word count is a caller bug)
		panic(fmt.Sprintf("machine: invalid off-chip access of %d words", words))
	}
	id := m.cfg.Grid.ID(p)
	m.stall(id, p)
	start := m.nodeTime[id]
	bits := words * m.cfg.WordBits
	mm := m.edgeDistMM(p)
	energy := m.cfg.Tech.OffChipEnergy(bits) + m.cfg.Tech.WireEnergy(bits, mm)
	end := start + m.cfg.Tech.OffChipDelay + m.cfg.Tech.WireDelay(mm)
	m.nodeTime[id] = end
	m.record(trace.KindOffChip, start, end, p, p, energy, bits, tag)
	m.offChipCount++
	return end
}

// --- Cost-oracle methods (no state mutation) ---

// OpCost returns the energy (fJ) and delay (ps) of one operation.
func (m *Machine) OpCost(class tech.OpClass, bits int) (energy, delay float64) {
	return m.cfg.Tech.OpEnergy(class, bits), m.cfg.Tech.OpDelay(class, bits)
}

// TransferCost returns the energy and uncontended latency of moving words
// machine words from src to dst.
func (m *Machine) TransferCost(src, dst geom.Point, words int) (energy, delay float64) {
	if src == dst {
		return 0, 0
	}
	bits := words * m.cfg.WordBits
	hops := src.Manhattan(dst)
	return m.net.MessageEnergy(hops, bits), m.net.UncontendedLatency(hops, bits)
}

// OffChipCost returns the energy and delay of an off-chip access of words
// machine words from node p.
func (m *Machine) OffChipCost(p geom.Point, words int) (energy, delay float64) {
	bits := words * m.cfg.WordBits
	mm := m.edgeDistMM(p)
	return m.cfg.Tech.OffChipEnergy(bits) + m.cfg.Tech.WireEnergy(bits, mm),
		m.cfg.Tech.OffChipDelay + m.cfg.Tech.WireDelay(mm)
}

// --- Metrics ---

// Metrics summarizes a machine run.
type Metrics struct {
	// Makespan is the latest completion time across all nodes and
	// in-flight messages, ps.
	Makespan float64
	// TotalEnergy is the total energy including network traffic, fJ.
	TotalEnergy float64
	// EnergyByKind breaks energy down by event kind, fJ. Network energy
	// appears under trace.KindWire.
	EnergyByKind map[trace.Kind]float64
	// Ops, MemAccesses, OffChipAccesses, Messages count events.
	Ops, MemAccesses, OffChipAccesses, Messages int64
	// Faults summarizes injected faults (zero when no injector is
	// configured): counts per fault kind, retry totals, and the delay
	// each kind added.
	Faults fault.Stats
}

// Metrics returns the run summary so far.
func (m *Machine) Metrics() Metrics {
	ns := m.net.Stats()
	byKind := make(map[trace.Kind]float64, len(m.energyByKind)+1)
	total := 0.0
	for k, e := range m.energyByKind {
		byKind[k] += e
		total += e
	}
	byKind[trace.KindWire] += ns.Energy
	total += ns.Energy

	makespan := m.lastArrival
	for _, t := range m.nodeTime {
		if t > makespan {
			makespan = t
		}
	}
	return Metrics{
		Makespan:        makespan,
		TotalEnergy:     total,
		EnergyByKind:    byKind,
		Ops:             m.opCount,
		MemAccesses:     m.memCount,
		OffChipAccesses: m.offChipCount,
		Messages:        ns.Messages,
		Faults:          m.cfg.Faults.Stats(),
	}
}

// Reset clears all clocks, statistics, and network state.
func (m *Machine) Reset() {
	for i := range m.nodeTime {
		m.nodeTime[i] = 0
	}
	m.energyByKind = make(map[trace.Kind]float64)
	m.opCount, m.memCount, m.offChipCount = 0, 0, 0
	m.lastArrival = 0
	m.net.Reset()
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Reset()
	}
}
