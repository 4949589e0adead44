// Package fault injects deterministic, seeded faults into the machine
// and NoC simulators: transient node stalls, link-delay spikes, and
// dropped-then-retried flits. The panel paper's F&M argument is that
// explicit mappings make costs *predictable*; that prediction only
// matters if it survives a non-ideal machine, so the fault layer lets
// every simulator answer "how much does this mapping degrade when the
// silicon misbehaves?" without giving up reproducibility.
//
// Every decision the injector makes is a pure function of (Seed, Rate,
// site, per-site sequence number): the k-th query at a given fault site
// always returns the same answer, independent of wall clock, map
// iteration order, or GOMAXPROCS. The simulators that consume it are
// single-threaded, so a run with the same configuration replays the
// identical fault schedule and produces a byte-identical space-time
// trace. Rate 0 (or a nil injector) injects nothing and leaves traces
// bit-for-bit unchanged.
package fault

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/splitmix"
)

// Class distinguishes the fault sites of the three injected fault kinds.
type Class uint64

// Fault site classes.
const (
	// ClassStall is a transient stall of one processor node.
	ClassStall Class = 1
	// ClassSpike is a delay spike on one directed NoC link.
	ClassSpike Class = 2
	// ClassDrop is a dropped-then-retried flit on one directed NoC link.
	ClassDrop Class = 3
)

// Config parameterizes an injector. Only Seed and Rate select *which*
// events fault; the remaining fields size the penalty of each fault kind.
type Config struct {
	// Seed selects the pseudo-random fault schedule.
	Seed int64
	// Rate is the per-decision fault probability in [0, 1]. Zero disables
	// injection entirely.
	Rate float64
	// StallPS is the duration of a transient node stall. Defaults to 500.
	StallPS float64
	// SpikePS is the extra per-hop delay of a link spike. Defaults to 200.
	SpikePS float64
	// BackoffPS is the base retry backoff after a dropped flit; retry k
	// waits BackoffPS * 2^(k-1). Defaults to 100.
	BackoffPS float64
	// MaxRetries caps the retransmissions of one dropped flit. Defaults
	// to 3. The final retry always succeeds: the model degrades delivery,
	// it never loses data, so causality analysis stays meaningful.
	MaxRetries int
}

func (c Config) withDefaults() Config {
	if c.StallPS == 0 {
		c.StallPS = 500
	}
	if c.SpikePS == 0 {
		c.SpikePS = 200
	}
	if c.BackoffPS == 0 {
		c.BackoffPS = 100
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	return c
}

// Validate reports an error for configurations the injector cannot honor.
func (c Config) Validate() error {
	if math.IsNaN(c.Rate) || c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("fault: rate %g outside [0, 1]", c.Rate)
	}
	if c.StallPS < 0 || c.SpikePS < 0 || c.BackoffPS < 0 {
		return fmt.Errorf("fault: negative fault penalty in %+v", c)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fault: negative retry cap %d", c.MaxRetries)
	}
	return nil
}

// Stats counts injected faults and the total delay they added.
type Stats struct {
	// Stalls, Spikes, Drops count faulted decisions by kind.
	Stalls, Spikes, Drops int64
	// Retries is the total number of flit retransmissions.
	Retries int64
	// StallPS, SpikePS, BackoffPS sum the injected delay by kind, ps.
	StallPS, SpikePS, BackoffPS float64
}

// InjectedPS returns the total delay injected across all fault kinds, ps.
func (s Stats) InjectedPS() float64 { return s.StallPS + s.SpikePS + s.BackoffPS }

// Events returns the total number of faulted decisions.
func (s Stats) Events() int64 { return s.Stalls + s.Spikes + s.Drops }

// Injector produces the deterministic fault schedule. It is not safe for
// concurrent use: like the machine and NoC simulators it serves, it is
// single-threaded by design so fault schedules are reproducible.
type Injector struct {
	cfg   Config
	seed  uint64
	seq   map[uint64]uint64
	stats Stats

	obsStalls, obsSpikes, obsDrops, obsRetries *obs.Counter
	obsInjectedPS                              *obs.Gauge
}

// New returns an injector for the configuration, or an error if the
// configuration is invalid.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Injector{
		cfg:  cfg,
		seed: splitmix.Mix64(uint64(cfg.Seed) ^ 0xfa177a617a617fa),
		seq:  make(map[uint64]uint64),
	}, nil
}

// Config returns the injector's (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Instrument publishes injection counts into the registry under
// "fault.*" names (stalls, spikes, drops, retries, injected_ps).
// Instrumentation never changes which events fault — the schedule is a
// pure function of (seed, rate, site, sequence) with or without it.
// No-op on a nil injector or registry.
func (in *Injector) Instrument(r *obs.Registry) {
	if in == nil || !r.Enabled() {
		return
	}
	in.obsStalls = r.Counter("fault.stalls")
	in.obsSpikes = r.Counter("fault.spikes")
	in.obsDrops = r.Counter("fault.drops")
	in.obsRetries = r.Counter("fault.retries")
	in.obsInjectedPS = r.Gauge("fault.injected_ps")
}

// Enabled reports whether the injector can ever fault. A nil injector or
// one with Rate 0 is disabled, and simulators skip it entirely, so the
// zero-rate trace is bit-for-bit the fault-free trace.
func (in *Injector) Enabled() bool { return in != nil && in.cfg.Rate > 0 }

// Stats returns fault counts and injected delay since the last Reset.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Reset clears all per-site sequence counters and statistics, replaying
// the fault schedule from the beginning — paired with machine.Reset so a
// re-run reproduces the identical faulted trace.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	in.seq = make(map[uint64]uint64)
	in.stats = Stats{}
}

// Site composes the fault-site key for a class and up to two endpoints
// (node IDs for stalls, directed link endpoints for spikes and drops).
func Site(class Class, a, b int) uint64 {
	return uint64(class)<<58 ^ uint64(uint32(a))<<29 ^ uint64(uint32(b))
}

// uniform returns draw k at site as a uniform in [0, 1), a pure function
// of (seed, site, k).
func (in *Injector) uniform(site, k uint64) float64 {
	h := splitmix.Mix64(in.seed ^ splitmix.Mix64(site+0x9e3779b97f4a7c15*k))
	return float64(h>>11) / (1 << 53)
}

// next consumes the site's next decision: whether it faults.
func (in *Injector) next(site uint64) bool {
	k := in.seq[site]
	in.seq[site] = k + 1
	return in.uniform(site, k) < in.cfg.Rate
}

// Schedule returns the first n fault decisions for a site — the
// generator every injection query consumes — without advancing the
// injector's own counters. It exists so tests and fuzzers can pin the
// schedule's determinism and rate behavior directly.
func (in *Injector) Schedule(site uint64, n int) []bool {
	if n <= 0 {
		return nil
	}
	out := make([]bool, n)
	for k := range out {
		out[k] = in.uniform(site, uint64(k)) < in.cfg.Rate
	}
	return out
}

// Stall returns the stall delay (ps) to charge before the next event at
// the given node: 0 almost always, StallPS when the node's schedule
// faults.
func (in *Injector) Stall(node int) float64 {
	if !in.Enabled() {
		return 0
	}
	if !in.next(Site(ClassStall, node, 0)) {
		return 0
	}
	in.stats.Stalls++
	in.stats.StallPS += in.cfg.StallPS
	in.obsStalls.Inc()
	in.obsInjectedPS.Add(in.cfg.StallPS)
	return in.cfg.StallPS
}

// Spike returns the extra delay (ps) of the next flit crossing the
// directed link from→to: 0 almost always, SpikePS on a spike.
func (in *Injector) Spike(from, to int) float64 {
	if !in.Enabled() {
		return 0
	}
	if !in.next(Site(ClassSpike, from, to)) {
		return 0
	}
	in.stats.Spikes++
	in.stats.SpikePS += in.cfg.SpikePS
	in.obsSpikes.Inc()
	in.obsInjectedPS.Add(in.cfg.SpikePS)
	return in.cfg.SpikePS
}

// Drop decides whether the next flit on the directed link from→to is
// dropped, and if so how many retransmissions it takes to get through:
// each retry after the first drop re-rolls the same site, with
// exponential backoff between attempts, up to MaxRetries (the last retry
// always delivers). It returns the retry count and the total backoff
// delay in ps; (0, 0) means delivered first try.
func (in *Injector) Drop(from, to int) (retries int, backoffPS float64) {
	if !in.Enabled() {
		return 0, 0
	}
	site := Site(ClassDrop, from, to)
	if !in.next(site) {
		return 0, 0
	}
	in.stats.Drops++
	backoff := in.cfg.BackoffPS
	for {
		retries++
		backoffPS += backoff
		if retries >= in.cfg.MaxRetries || !in.next(site) {
			break
		}
		backoff *= 2
	}
	in.stats.Retries += int64(retries)
	in.stats.BackoffPS += backoffPS
	in.obsDrops.Inc()
	in.obsRetries.Add(int64(retries))
	in.obsInjectedPS.Add(backoffPS)
	return retries, backoffPS
}
