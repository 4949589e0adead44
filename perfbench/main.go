// Command perfbench is the repository's service benchmark. For one
// workload and seed it generates every request up front, starts mapd
// servers (and, for cluster-mix, a router over three of them) in this
// process behind loopback listeners, and drives them over HTTP:
// closed-loop blocks measure capacity, and fixed-rate open-loop segments
// between them measure latency from each request's intended send
// instant. Blocks and segments during which the hypervisor stole more
// than a sliver of the CPU are left out of the figures. Every answer is
// checked against reference costs computed with fm.Evaluate. The last
// line of output is one JSON object with the metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot-eval --seed 1 --seconds 36 --trace 0
//
// --trace 1 makes a separate traced run that reports per-layer metrics
// and writes its spans to a file under --workdir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/tracing"
	"repro/internal/serve"
)

// setupRuns is how many times a run sets up its fleet; setup_s is the
// median. Set-up prices the working set on stores that fsync every put,
// so one set-up follows the disk's fsync latency, which swings from put
// to put on a shared host; a median over many set-ups repeats between
// runs where one over a few does not.
const setupRuns = 15

// openGrace bounds how long an open-loop segment may run past its
// schedule.
const openGrace = 5 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "hot-eval or cluster-mix")
	seed := fs.Int64("seed", 1, "seed the request sequence is generated from")
	seconds := fs.Float64("seconds", 36, "measured seconds, split between the closed and open loops")
	trace := fs.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench", "directory for the stores and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload hot-eval|cluster-mix, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		spec.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{spec: spec, seed: *seed, seconds: *seconds, tmp: tmp, workdir: *workdir, out: stdout, workers: runtime.NumCPU()}
	var rep *report
	if *trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.measured()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// bench is one run's configuration.
type bench struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	tmp     string
	workdir string
	out     io.Writer
	// workers caps the generator's goroutines and connections: nproc.
	workers int
}

// tally accumulates verdicts over every phase of a run.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) add(o *oracle, results []result, workers int) ([]bool, error) {
	ok, notes, err := o.verdicts(results, workers)
	if err != nil {
		return nil, err
	}
	t.attempted += len(results)
	for _, v := range ok {
		if !v {
			t.failed++
		}
	}
	t.notes = append(t.notes, notes...)
	return ok, nil
}

// setUp starts a fleet and sends the set-up traffic through a fresh
// generator, returning both and the set-up answers. The generator traces
// only the timed traffic that follows.
func (b *bench) setUp(in *inputs, spans *spanLog) (*fleet, *generator, []result, error) {
	f, err := startFleet(b.spec, b.tmp, spans)
	if err != nil {
		return nil, nil, nil, err
	}
	gen := newGenerator(b.workers)
	var res []result
	if b.spec.cluster {
		// Price the working set on both replicas of its key, so hedged
		// duplicates find warm caches too.
		ring := cluster.NewRing(len(f.shards))
		perShard := make([][]*request, len(f.shards))
		for _, r := range in.warm {
			key, err := serve.RouteKey(r.body)
			if err != nil {
				f.close()
				return nil, nil, nil, err
			}
			for _, s := range ring.Owners(key, 2) {
				perShard[s] = append(perShard[s], r)
			}
		}
		for s, seq := range perShard {
			res = append(res, gen.sendAll(f.shards[s].url, seq)...)
		}
	} else {
		res = gen.sendAll(f.entry, in.warm)
	}
	res = append(res, gen.sendAll(f.entry, in.burst)...)
	gen.spans = spans
	return f, gen, res, nil
}

// phase is the outcome of one timed phase.
type phase struct {
	results []result
	ok      []bool
	elapsed time.Duration
	alloc   uint64
	gc      gcStats
	open    openStats
	// windows partition the phase's results: one per closed-loop block
	// or open-loop segment.
	windows []window
}

// completed counts the requests that got an answer.
func (p *phase) completed() int {
	n := 0
	for i := range p.results {
		if p.results[i].err == nil {
			n++
		}
	}
	return n
}

// latencies returns the latencies in ms of the correct answers on path
// in the kept windows, in result order.
func (p *phase) latencies(path string) []float64 {
	var out []float64
	for _, w := range p.kept() {
		for i := w.from; i < w.to; i++ {
			if p.ok[i] && p.results[i].req.path == path {
				out = append(out, ms(p.results[i].latency()))
			}
		}
	}
	return out
}

// procSample is the allocation and GC totals at a phase boundary.
type procSample struct {
	alloc uint64
	gc    gcStats
}

type gcStats struct {
	cycles  uint64
	pauseNS uint64
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		alloc: ms.TotalAlloc,
		gc:    gcStats{cycles: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs},
	}
}

// since adds the allocation and GC work done after s.
func (p *phase) since(s procSample) {
	now := sampleProc()
	p.alloc += now.alloc - s.alloc
	p.gc.cycles += now.gc.cycles - s.gc.cycles
	p.gc.pauseNS += now.gc.pauseNS - s.gc.pauseNS
}

// stealMax is the share of the machine's CPU time the hypervisor may
// take during a closed-loop block or an open-loop segment before the
// figures leave that window out. A shared host steals in spells of tens
// of seconds that take a tenth to a third of the CPU: a stolen vCPU
// stalls every request it holds for milliseconds, which moves the
// latency tails far more than the program does, while outside them the
// host steals under 2%.
const stealMax = 0.02

// hostSteal is the CPU time the hypervisor has taken from this machine
// so far: the steal column of /proc/stat, in USER_HZ ticks of 10ms. It
// reads 0 where there is no such file, so no window is left out.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stolenShare is the share of the machine's CPU time stolen while
// elapsed passed, given the steal totals around it.
func stolenShare(from, to, elapsed time.Duration) float64 {
	return ratio(float64(to-from), float64(elapsed)*float64(runtime.NumCPU()))
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// durations splits the measured seconds between the closed and the
// open loop.
func (b *bench) durations() (closed, open time.Duration) {
	total := time.Duration(b.seconds * float64(time.Second))
	closed = time.Duration(float64(total) * closedShare)
	return closed, total - closed
}

// closedWindow is the length of one closed-loop block: throughput and
// CPU per request are medians over blocks, so a brief stall of the shared
// host moves one block, not the run's figure.
const closedWindow = 500 * time.Millisecond

// blocks is how many closed-loop blocks and open-loop segments a run
// alternates between: one block per closedWindow of closed loop. The
// shared host's speed drifts over seconds, so the finer the two loops
// interleave, the more of that drift each one's figures average over.
func (b *bench) blocks() int {
	closed, _ := b.durations()
	return max(1, int(closed/closedWindow))
}

// window is one closed-loop block or open-loop segment of a phase.
type window struct {
	from, to int
	elapsed  time.Duration
	cpu      time.Duration
	// stolen is the share of the machine's CPU time the hypervisor took.
	stolen float64
}

// kept returns the windows the figures use: those in which the
// hypervisor stole at most stealMax, or, when fewer than half are, the
// half it stole least from.
func (p *phase) kept() []window {
	var out []window
	for _, w := range p.windows {
		if w.stolen <= stealMax {
			out = append(out, w)
		}
	}
	if 2*len(out) >= len(p.windows) {
		return out
	}
	out = append(out[:0], p.windows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].stolen < out[j].stolen })
	out = out[:(len(out)+1)/2]
	sort.Slice(out, func(i, j int) bool { return out[i].from < out[j].from })
	return out
}

// closedBlock runs one block of d of closed loop, continuing the sequence
// from next and appending to p.
func (b *bench) closedBlock(p *phase, f *fleet, gen *generator, in *inputs, d time.Duration, next *atomic.Int64) {
	runtime.GC()
	s := sampleProc()
	c0, s0 := cpuTime(), hostSteal()
	res, el := gen.closedLoop(f.entry, in.closed, d, next)
	p.windows = append(p.windows, window{from: len(p.results), to: len(p.results) + len(res), elapsed: el,
		cpu: cpuTime() - c0, stolen: stolenShare(s0, hostSteal(), el)})
	p.results = append(p.results, res...)
	p.elapsed += el
	p.since(s)
}

// windowRates returns, per kept window of a closed phase, the correct
// answers per second and the CPU microseconds per completed request.
func (p *phase) windowRates() (rps, cpuUS []float64) {
	for _, w := range p.kept() {
		done, correct := 0, 0
		for i := w.from; i < w.to; i++ {
			if p.results[i].err == nil {
				done++
			}
			if p.ok[i] {
				correct++
			}
		}
		if done == 0 {
			continue
		}
		rps = append(rps, float64(correct)/w.elapsed.Seconds())
		cpuUS = append(cpuUS, us(w.cpu)/float64(done))
	}
	return rps, cpuUS
}

// openSegment sends seq on its own fixed-rate schedule, appending to p.
func (b *bench) openSegment(p *phase, f *fleet, gen *generator, seq []*request) {
	runtime.GC()
	start, s0 := time.Now(), hostSteal()
	res, st := gen.openLoop(f.entry, seq, b.spec.rate, openGrace)
	el := time.Since(start)
	p.windows = append(p.windows, window{from: len(p.results), to: len(p.results) + len(res), elapsed: el,
		stolen: stolenShare(s0, hostSteal(), el)})
	p.results = append(p.results, res...)
	p.open.lags = append(p.open.lags, st.lags...)
	p.open.backlogMax = max(p.open.backlogMax, st.backlogMax)
	p.open.unsent += st.unsent
}

// pass is one fleet's life in a run: set-up, the timed phases and the
// oracle's verdicts on every answer.
type pass struct {
	// setups are the set-up times in seconds.
	setups       []float64
	closed, open *phase
	rss          float64
	// before and after are the fleet's counters around the timed phases;
	// exports are its flight recorders after them.
	before, after counters
	exports       []tracing.Export
	rexport       tracing.Export
}

// drive sets a fleet up setups times, tearing down all but the last, and
// runs the timed phases on the last: closed-loop blocks and open-loop
// segments alternate, so both sample the whole run rather than one
// stretch of the shared host's drift. spans, when non-nil, instruments
// every layer. Every answer is checked into t.
func (b *bench) drive(in *inputs, o *oracle, t *tally, spans *spanLog, setups int) (*pass, error) {
	p := &pass{closed: &phase{}, open: &phase{}}
	var f *fleet
	var gen *generator
	for range setups {
		if f != nil {
			gen.close()
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var warm []result
		var err error
		if f, gen, warm, err = b.setUp(in, spans); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		if _, err := t.add(o, warm, b.workers); err != nil {
			gen.close()
			f.close()
			return nil, err
		}
	}
	err := p.timed(b, f, gen, in)
	gen.close()
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, ph := range []*phase{p.closed, p.open} {
		if ph.ok, err = t.add(o, ph.results, b.workers); err != nil {
			return nil, err
		}
	}
	t.attempted += p.open.open.unsent
	t.failed += p.open.open.unsent
	return p, nil
}

// timed runs the timed phases on f, reading its counters around them.
func (p *pass) timed(b *bench, f *fleet, gen *generator, in *inputs) error {
	var err error
	if p.before, err = readCounters(f, gen); err != nil {
		return err
	}
	closedD, _ := b.durations()
	n := b.blocks()
	var next atomic.Int64
	for k := range n {
		b.closedBlock(p.closed, f, gen, in, closedD/time.Duration(n), &next)
		b.openSegment(p.open, f, gen, in.open[k*len(in.open)/n:(k+1)*len(in.open)/n])
	}
	p.rss = maxRSSMB()
	if p.after, err = readCounters(f, gen); err != nil {
		return err
	}
	for _, m := range f.shards {
		p.exports = append(p.exports, m.tracer.Export())
	}
	p.rexport = f.rtrace.Export()
	return nil
}

// inputs generates the run's request sequence from its seed.
func (b *bench) inputs() (*inputs, error) {
	_, openD := b.durations()
	return generate(b.spec, b.seed, openD.Seconds())
}

// measured is the untraced run that reports the end-to-end metrics.
func (b *bench) measured() (*report, error) {
	in, err := b.inputs()
	if err != nil {
		return nil, err
	}
	var t tally
	p, err := b.drive(in, newOracle(in), &t, nil, setupRuns)
	if err != nil {
		return nil, err
	}
	done := float64(p.closed.completed())
	rps, cpuUS := p.closed.windowRates()
	evals, searches := p.open.latencies(pathEval), p.open.latencies(pathSearch)
	b.summary(&t, p, len(evals), len(searches))
	m := map[string]metric{
		"setup_s":          {median(p.setups), "s"},
		"throughput_rps":   {median(rps), "1/s"},
		"cpu_us_per_req":   {median(cpuUS), "us"},
		"alloc_kb_per_req": {ratio(float64(p.closed.alloc)/1024, done), "KiB"},
		"max_rss_mb":       {p.rss, "MiB"},
		"eval_p50_ms":      {percentile(evals, 50), "ms"},
		"eval_p99_ms":      {percentile(evals, 99), "ms"},
		"search_p50_ms":    {percentile(searches, 50), "ms"},
		"search_p90_ms":    {percentile(searches, 90), "ms"},
	}
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// summary prints the run's counts, failures and generator health.
func (b *bench) summary(t *tally, p *pass, evals, searches int) {
	fmt.Fprintf(b.out, "closed loop: %d requests in %.2fs; open loop: %d evals, %d searches at %.0f req/s\n",
		len(p.closed.results), p.closed.elapsed.Seconds(), evals, searches, b.spec.rate)
	fmt.Fprintf(b.out, "host steal: kept %d of %d closed-loop blocks and %d of %d open-loop segments (at most %.0f%% of the CPU stolen)\n",
		len(p.closed.kept()), len(p.closed.windows), len(p.open.kept()), len(p.open.windows), stealMax*100)
	fmt.Fprintf(b.out, "generator: lag_p99_ms=%.3f backlog_max=%d unsent=%d\n",
		percentile(p.open.open.lags, 99), p.open.open.backlogMax, p.open.open.unsent)
	fmt.Fprintf(b.out, "fail_ratio=%.6f (%d of %d)\n", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	for _, n := range t.notes {
		fmt.Fprintf(b.out, "failure: %s\n", n)
	}
}
