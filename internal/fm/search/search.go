// Package search optimizes mappings. "For each function there are many
// possible mappings that range from completely serial to minimum-depth
// parallel with many points between. One can systematically search the
// space of possible mappings to optimize a given figure of merit:
// execution time, energy per op, memory footprint, or some combination."
// (Dally, section 3.)
//
// Two searchers are provided. Exhaustive2D enumerates an affine mapping
// family for 2-D uniform recurrences — place (a1*i+a2*j) mod P on a
// linear array, time t1*i+t2*j — keeping every legal candidate and its
// cost, from which Pareto returns the time/energy frontier.
// AnnealResumable improves the mapping of an arbitrary dataflow graph by
// local search over placements only; start times are always re-derived
// by an ASAP (as-soon-as-possible) pass, so every candidate is legal by
// construction and the search space is pure space, never space-time.
//
// Both searchers practice what the paper preaches: candidate evaluation
// fans out over a work-stealing pool (internal/workspan, the repo's own
// fork-join runtime) and repeated candidates are priced once through a
// shared EvalCache. Parallelism never changes answers. Exhaustive2D
// assigns every enumerated tuple a fixed index and merges results in
// index order; AnnealResumable gives each chain its own rand.Source
// seeded from the caller's seed and exchanges bests only at
// deterministic iteration barriers. For any Workers value — including
// the serial Workers=1 path — results are byte-identical.
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workspan"
)

// Objective is a figure of merit over mapping costs.
type Objective int

const (
	// MinTime minimizes makespan cycles.
	MinTime Objective = iota
	// MinEnergy minimizes total energy.
	MinEnergy
	// MinEDP minimizes the energy-delay product.
	MinEDP
	// MinFootprint minimizes peak per-node memory, tie-broken by time.
	MinFootprint
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MinTime:
		return "time"
	case MinEnergy:
		return "energy"
	case MinEDP:
		return "energy-delay"
	case MinFootprint:
		return "footprint"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Value returns the scalar the objective minimizes.
func (o Objective) Value(c fm.Cost) float64 {
	switch o {
	case MinTime:
		return float64(c.Cycles)
	case MinEnergy:
		return c.EnergyFJ
	case MinEDP:
		return c.EnergyFJ * float64(c.Cycles)
	case MinFootprint:
		return float64(c.PeakWordsPerNode)*1e12 + float64(c.Cycles)
	default:
		//lint:allow panic(unreachable for the defined Objective constants; an unknown objective is a caller bug)
		//lint:allow alloc(unreachable in a correct run: the Sprintf only feeds a caller-bug panic)
		panic(fmt.Sprintf("search: unknown objective %d", int(o)))
	}
}

// Candidate is one legal mapping with its evaluated cost.
type Candidate struct {
	Name  string
	Sched fm.Schedule
	Cost  fm.Cost
}

// ASAP derives the earliest legal start times for a fixed placement; it
// is fm.ASAPSchedule, re-exported because the annealer's whole search
// space is placements repaired by this pass.
func ASAP(g *fm.Graph, place []geom.Point, tgt fm.Target) fm.Schedule {
	return fm.ASAPSchedule(g, place, tgt)
}

// resolveWorkers maps the Workers option to an actual worker count:
// 0 means one worker per available CPU, anything else is taken as given
// (clamped to at least 1).
func resolveWorkers(w int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// AnnealOptions tunes the placement annealer.
type AnnealOptions struct {
	// Iters is the number of proposals per chain. Defaults to 2000.
	Iters int
	// Seed makes the search deterministic: chain i draws from
	// rand.NewSource(Seed + i), so no chain ever shares a stream.
	Seed int64
	// Objective is the figure of merit. Defaults to MinTime.
	Objective Objective
	// Chains is the number of independent annealing chains. Defaults
	// to 1, which reproduces the classic single-chain annealer exactly.
	Chains int
	// ExchangeEvery is the per-chain iteration count between best-exchange
	// barriers: at each barrier the globally best mapping (ties broken by
	// lowest chain index) replaces the current state of every chain it
	// beats. Defaults to 250; negative disables exchange. With one chain
	// exchange is skipped entirely.
	ExchangeEvery int
	// Workers bounds the goroutines running chains. 0 means one per CPU;
	// the count is further capped at Chains. The result is identical for
	// every value — parallelism only changes the wall clock.
	Workers int
	// Cache memoizes candidate evaluations across chains and workers. If
	// nil, AnnealResumable creates a private cache for the run, so a
	// mapping re-proposed by any chain is priced once.
	Cache *EvalCache
	// CheckpointPath, when non-empty, writes a crash-safe snapshot
	// (JSON, atomic tmp+rename) after every exchange barrier, so a
	// killed search can restart from its last barrier. With a single
	// chain, barriers still occur every ExchangeEvery iterations so the
	// checkpoint stays fresh; a negative ExchangeEvery disables both
	// exchange and intermediate checkpoints.
	CheckpointPath string
	// Resume restores the run from CheckpointPath before searching. The
	// checkpoint must exist and must have been written by a run with the
	// same graph, target, and options; the resumed search then produces
	// bit-identical final output to an uninterrupted run.
	Resume bool
	// Context, when non-nil, bounds the search. It is checked at every
	// exchange barrier (the cancellation granularity is ExchangeEvery
	// iterations per chain): once done, AnnealResumable stops, emits the
	// final progress record, and returns the best mapping found so far
	// TOGETHER WITH the context's error — the caller decides whether a
	// partial result is useful. The last committed checkpoint (if any)
	// corresponds to the returned state, so a deadline-bounded search can
	// be resumed later. Deadline propagation is what lets a serving layer
	// turn a client timeout into a best-so-far answer instead of wasted
	// work.
	Context context.Context
	// Pool, when non-nil, runs chains on this shared work-stealing pool
	// instead of creating (and closing) a private one. Sharing a
	// process-wide pool bounds total goroutines when many searches run
	// concurrently; results are identical either way.
	Pool *workspan.Pool
	// OnProgress, when non-nil, is called with a Progress snapshot at
	// every exchange barrier and once more (Final=true) after the last
	// iteration. With a single chain, barriers still occur every
	// ExchangeEvery iterations so the stream stays live. The callback
	// runs on the coordinating goroutine while all chains are parked at
	// the barrier, so it may read the snapshot freely; it must not
	// mutate search state. Observability never changes the result.
	OnProgress func(Progress)
	// Obs, when non-nil, receives search metrics under "search.anneal.*"
	// (candidates, accepts/rejects, best objective, per-chain
	// temperature) refreshed at every barrier, plus the EvalCache's
	// "search.evalcache.*" gauges.
	Obs *obs.Registry
	// InitSchedule, when non-nil, seeds every chain from this schedule's
	// placements instead of the default mapper's list schedule. Times are
	// re-derived by ASAP (like every annealer candidate), so any legal
	// placement vector is a valid start. This is how a distributed search
	// adopts a best-so-far mapping found elsewhere: the cluster's exchange
	// barrier hands each shard the global best and the next round anneals
	// outward from it. The schedule must cover exactly the graph's nodes.
	// On Resume the checkpoint's restored state wins, as it must for
	// bit-identical continuation.
	InitSchedule fm.Schedule
	// DisableDelta switches move pricing back to the full evaluator
	// through the EvalCache instead of the incremental fm.DeltaEvaluator.
	// The zero value — delta evaluation ON — is the fast path; results
	// are bit-identical either way (the delta evaluator's contract,
	// pinned by internal/fm/deltacheck and the determinism matrix), so
	// the toggle exists as an escape hatch and for equivalence tests.
	DisableDelta bool
}

// mover is the incremental move-pricing engine an annealing chain drives:
// Reset prices a schedule in full and makes it current, Propose prices
// one relocation without committing (rejections need no cleanup),
// ProposeCycles prices only that relocation's makespan, Commit adopts
// the last proposal and Cost returns the committed cost, Snapshot copies
// out the committed schedule. Costs are bit-identical to pricing the
// re-timed schedule with fm.Evaluate. newMover (build-tag selected)
// supplies the production fm.DeltaEvaluator or the differential
// deltacheck.Checker.
type mover interface {
	Reset(fm.Schedule) (fm.Cost, error)
	Propose(fm.NodeID, geom.Point) fm.Cost
	ProposeCycles(fm.NodeID, geom.Point) int64
	Commit()
	Cost() fm.Cost
	Snapshot(fm.Schedule) fm.Schedule
}

// initTemp is every chain's starting temperature as a fraction of its
// initial objective value.
const initTemp = 0.05

func (o AnnealOptions) withDefaults() AnnealOptions {
	if o.Iters == 0 {
		o.Iters = 2000
	}
	if o.Chains <= 0 {
		o.Chains = 1
	}
	if o.ExchangeEvery == 0 {
		o.ExchangeEvery = 250
	}
	return o
}

// countingSource wraps a rand source and counts raw draws. The count is
// the chain's exact RNG position: a fresh source fast-forwarded by the
// same number of draws continues the identical stream, which is what
// makes checkpointed annealing runs bit-reproducible. (rand.Rand may
// consume a variable number of draws per call — rejection sampling in
// Intn — so counting draws, not calls, is the only safe coordinate.)
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// newChainSource builds the draw-counting source for chain i of a run
// seeded with seed, fast-forwarded by draws raw values.
func newChainSource(seed int64, i int, draws uint64) *countingSource {
	src := rand.NewSource(seed + int64(i)).(rand.Source64)
	for k := uint64(0); k < draws; k++ {
		src.Uint64()
	}
	return &countingSource{src: src, n: draws}
}

// chain is the private state of one annealing chain. Chains share the
// graph, target, and evaluation cache (all safe concurrently) and nothing
// else, so running them on separate workers cannot race.
type chain struct {
	rng      *rand.Rand
	src      *countingSource
	place    []geom.Point
	cur      fm.Schedule
	curCost  fm.Cost
	best     fm.Schedule
	bestCost fm.Cost
	temp     float64
	cool     float64
	// eng, when non-nil, prices moves incrementally (the default); nil
	// falls back to full evaluation through the cache. curBuf is the
	// preallocated snapshot buffer cur is materialized into at segment
	// ends, so the steady-state loop never allocates.
	eng    mover
	curBuf fm.Schedule
	// evals/accepts/rejects are chain-private counters, summed only at
	// barriers (when no chain is running), so progress reporting adds no
	// synchronization to the hot loop.
	evals, accepts, rejects int64
}

// run advances the chain by iters proposals: relocate one node to a
// random grid point, repair times by ASAP, accept by the Metropolis rule.
func (ch *chain) run(g *fm.Graph, gfp uint64, tgt fm.Target, obj Objective, cache *EvalCache, iters int) {
	if ch.eng != nil {
		for it := 0; it < iters; it++ {
			ch.step(g, gfp, tgt, obj, cache)
		}
		// Materialize the committed schedule once per segment, into the
		// chain-owned buffer: barriers (checkpointing, exchange) read
		// ch.cur, the move loop does not.
		ch.cur = ch.eng.Snapshot(ch.curBuf)
		ch.curBuf = ch.cur
		return
	}
	for it := 0; it < iters; it++ {
		n := ch.rng.Intn(g.NumNodes())
		old := ch.place[n]
		ch.place[n] = tgt.Grid.At(ch.rng.Intn(tgt.Grid.Nodes()))
		cand := ASAP(g, ch.place, tgt)
		candCost := cache.Eval(g, gfp, cand, tgt)
		ch.evals++
		delta := obj.Value(candCost) - obj.Value(ch.curCost)
		if delta <= 0 || ch.rng.Float64() < math.Exp(-delta/math.Max(ch.temp, 1e-12)) {
			ch.accepts++
			ch.cur, ch.curCost = cand, candCost
			if obj.Value(ch.curCost) < obj.Value(ch.bestCost) {
				ch.best, ch.bestCost = ch.cur, ch.curCost
			}
		} else {
			ch.rejects++
			ch.place[n] = old
		}
		ch.temp *= ch.cool
	}
}

// step is one delta-evaluated anneal move: propose a relocation, price
// it incrementally (bit-identical to the full evaluator, so the
// Metropolis decisions — and therefore the RNG stream and the whole
// trajectory — match the classic path exactly), commit on acceptance.
// A time objective reads only the makespan, so its proposals price
// nothing else, and Commit finishes the full cost of the accepted ones.
// The steady-state path allocates nothing; a new global best snapshots
// into a fresh schedule (improvements are rare and the buffer must
// outlive cross-chain adoption) and is published to the shared cache so
// other chains and sweeps get hits for it.
//
//lint:hotpath
func (ch *chain) step(g *fm.Graph, gfp uint64, tgt fm.Target, obj Objective, cache *EvalCache) {
	n := ch.rng.Intn(g.NumNodes())
	to := tgt.Grid.At(ch.rng.Intn(tgt.Grid.Nodes()))
	var cand float64
	if obj == MinTime {
		//lint:allow alloc(mover contract: ProposeCycles is delta-priced in preallocated scratch; the DeltaEvaluator implementation is itself lint:hotpath-checked)
		cand = float64(ch.eng.ProposeCycles(fm.NodeID(n), to))
	} else {
		//lint:allow alloc(mover contract: Propose is delta-priced in preallocated scratch; the DeltaEvaluator implementation is itself lint:hotpath-checked)
		cand = obj.Value(ch.eng.Propose(fm.NodeID(n), to))
	}
	ch.evals++
	delta := cand - obj.Value(ch.curCost)
	if delta <= 0 || ch.rng.Float64() < math.Exp(-delta/math.Max(ch.temp, 1e-12)) {
		ch.accepts++
		//lint:allow alloc(mover contract: Commit prices and swaps preallocated committed/candidate state, no allocation)
		ch.eng.Commit()
		ch.place[n] = to
		//lint:allow alloc(mover contract: Cost returns the committed cost by value, no allocation)
		candCost := ch.eng.Cost()
		ch.curCost = candCost
		if obj.Value(candCost) < obj.Value(ch.bestCost) {
			//lint:allow alloc(new-best path only: improvements are rare and the snapshot must outlive cross-chain adoption, so it deliberately allocates; the steady-state reject/accept path is what the zero-alloc gate pins)
			ch.best = ch.eng.Snapshot(make(fm.Schedule, g.NumNodes()))
			ch.bestCost = candCost
			if cache != nil {
				//lint:allow alloc(new-best path only: publishing a new best may grow the shard's eviction ring, at most once per slot up to the cache bound; the steady-state reject/accept path never reaches it)
				cache.Put(gfp, ch.best.Fingerprint(), tgt, candCost)
			}
		}
	} else {
		ch.rejects++
	}
	ch.temp *= ch.cool
}

// testBarrierHook, when non-nil, runs after each barrier's checkpoint is
// committed, with the number of iterations completed. Tests use it to
// capture mid-run snapshots; it must stay nil outside tests.
var testBarrierHook func(done int)

// AnnealResumable searches placements of g on tgt by simulated
// annealing, starting every chain from the default mapper's placement.
// Moves relocate one node to a random grid point; times are re-derived
// by ASAP so every candidate is legal. With Chains > 1 it runs that many
// independent chains (each with its own RNG stream, optionally on
// parallel workers) and periodically broadcasts the global best; the
// returned schedule is the best over all chains, ties broken by lowest
// chain index. The result depends only on the options, never on Workers
// or GOMAXPROCS. Errors come from checkpointing, resuming, a malformed
// opts.InitSchedule, or opts.Context ending, which also returns the best
// mapping found so far.
//
// When opts.CheckpointPath is set, a snapshot of every chain (schedules
// plus exact RNG position) is committed atomically at each exchange
// barrier; when opts.Resume is also set, the search restores that
// snapshot and continues, and the final (schedule, cost) is
// bit-identical to an uninterrupted run with the same options — the RNG
// streams are fast-forwarded by recorded draw counts, costs are
// re-priced by the deterministic evaluator, and the cooling schedule is
// replayed, so no state is approximated across the crash.
func AnnealResumable(g *fm.Graph, tgt fm.Target, opts AnnealOptions) (fm.Schedule, fm.Cost, error) {
	opts = opts.withDefaults()
	cache := opts.Cache
	if cache == nil {
		cache = NewEvalCache()
	}
	gfp := g.Fingerprint()
	tgtDesc := fmt.Sprintf("%+v", tgt)

	var resume *Checkpoint
	if opts.Resume {
		if opts.CheckpointPath == "" {
			return nil, fm.Cost{}, fmt.Errorf("search: Resume requires CheckpointPath")
		}
		cp, err := LoadCheckpoint(opts.CheckpointPath)
		if err != nil {
			return nil, fm.Cost{}, err
		}
		if err := cp.matches(gfp, tgtDesc, opts); err != nil {
			return nil, fm.Cost{}, err
		}
		resume = cp
	}

	var init fm.Schedule
	if opts.InitSchedule != nil {
		if len(opts.InitSchedule) != g.NumNodes() {
			return nil, fm.Cost{}, fmt.Errorf("search: InitSchedule covers %d nodes, graph has %d",
				len(opts.InitSchedule), g.NumNodes())
		}
		init = opts.InitSchedule
	} else {
		init = fm.ListSchedule(g, tgt)
	}
	done := 0
	chains := make([]*chain, opts.Chains)
	for i := range chains {
		place := make([]geom.Point, g.NumNodes())
		for n := range place {
			place[n] = init[n].Place
		}
		src := newChainSource(opts.Seed, i, 0)
		ch := &chain{
			rng:   rand.New(src),
			src:   src,
			place: place,
			cool:  math.Pow(1e-3, 1/float64(opts.Iters)), // decay to 0.1% of initial
		}
		if !opts.DisableDelta {
			eng, err := newMover(g, tgt)
			if err != nil {
				return nil, fm.Cost{}, err
			}
			ch.eng = eng
			ch.curBuf = make(fm.Schedule, g.NumNodes())
		}
		ch.cur = ASAP(g, place, tgt)
		ch.curCost = cache.Eval(g, gfp, ch.cur, tgt)
		ch.evals++
		if ch.eng != nil {
			if _, err := ch.eng.Reset(ch.cur); err != nil {
				return nil, fm.Cost{}, err
			}
		}
		ch.best, ch.bestCost = ch.cur, ch.curCost
		ch.temp = initTemp * math.Max(opts.Objective.Value(ch.curCost), 1)
		chains[i] = ch
	}
	if resume != nil {
		done = resume.Done
		for i, ch := range chains {
			st := resume.ChainStates[i]
			if len(st.Cur) != g.NumNodes() || len(st.Best) != g.NumNodes() {
				return nil, fm.Cost{}, fmt.Errorf("search: checkpoint chain %d has schedules for %d/%d nodes, want %d",
					i, len(st.Cur), len(st.Best), g.NumNodes())
			}
			ch.src = newChainSource(opts.Seed, i, st.Draws)
			ch.rng = rand.New(ch.src)
			ch.cur = st.Cur
			ch.best = st.Best
			for n := range ch.place {
				ch.place[n] = st.Cur[n].Place
			}
			ch.curCost = cache.Eval(g, gfp, ch.cur, tgt)
			ch.bestCost = cache.Eval(g, gfp, ch.best, tgt)
			ch.evals += 2
			if ch.eng != nil {
				if _, err := ch.eng.Reset(ch.cur); err != nil {
					return nil, fm.Cost{}, err
				}
			}
			// Replay the cooling multiplications rather than computing
			// cool^done: repeated float multiplication is what the
			// uninterrupted run performs, and resume must match it bit
			// for bit.
			for k := 0; k < done; k++ {
				ch.temp *= ch.cool
			}
		}
	}

	// Chains advance in segments of ExchangeEvery iterations. Segment
	// boundaries are barriers: all chains arrive, the deterministic
	// exchange runs, the checkpoint (if any) commits, all chains leave —
	// so the trajectory of every chain is a pure function of the options.
	// Progress emission happens only at barriers, with every chain
	// parked, so the chain-private counters can be read without locks.
	// The helper publishes to the callback and the registry; neither can
	// influence the chains, so observers never perturb the search.
	//lint:allow nondeterminism(wall clock feeds progress telemetry only; search results never depend on it)
	start := time.Now()
	observing := opts.OnProgress != nil || opts.Obs.Enabled()
	emit := func(done int, final bool) {
		if !observing {
			return
		}
		var evals, accepts, rejects int64
		for _, ch := range chains {
			evals += ch.evals
			accepts += ch.accepts
			rejects += ch.rejects
		}
		w := bestChain(chains, opts.Objective)
		p := Progress{
			Done: done, Total: opts.Iters,
			Candidates: evals, Accepted: accepts, Rejected: rejects,
			//lint:allow nondeterminism(wall clock feeds progress telemetry only; search results never depend on it)
			ElapsedSec:    time.Since(start).Seconds(),
			BestObjective: opts.Objective.Value(chains[w].bestCost),
			BestCycles:    chains[w].bestCost.Cycles,
			BestEnergyFJ:  chains[w].bestCost.EnergyFJ,
			Final:         final,
		}
		if p.ElapsedSec > 0 {
			p.CandidatesPerSec = float64(evals) / p.ElapsedSec
		}
		cs := cache.SnapshotStats()
		p.CacheHits, p.CacheMisses = cs.Hits, cs.Misses
		if total := p.CacheHits + p.CacheMisses; total > 0 {
			p.CacheHitRate = float64(p.CacheHits) / float64(total)
		}
		for i, ch := range chains {
			p.Chains = append(p.Chains, ChainProgress{
				Chain: i, Temp: ch.temp,
				CurObjective:  opts.Objective.Value(ch.curCost),
				BestObjective: opts.Objective.Value(ch.bestCost),
			})
		}
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
		if r := opts.Obs; r.Enabled() {
			r.Gauge("search.anneal.iters_done").Set(float64(done))
			r.Gauge("search.anneal.candidates").Set(float64(evals))
			r.Gauge("search.anneal.accepted").Set(float64(accepts))
			r.Gauge("search.anneal.rejected").Set(float64(rejects))
			r.Gauge("search.anneal.best_objective").Set(p.BestObjective)
			for i, ch := range chains {
				r.Gauge(fmt.Sprintf("search.anneal.chain%d.temp", i)).Set(ch.temp)
				r.Gauge(fmt.Sprintf("search.anneal.chain%d.best_objective", i)).
					Set(opts.Objective.Value(ch.bestCost))
			}
			cache.PublishObs(r)
		}
	}

	segment := opts.ExchangeEvery
	if (opts.Chains == 1 && opts.CheckpointPath == "" && !observing) || segment < 0 {
		segment = opts.Iters
	}
	workers := resolveWorkers(opts.Workers)
	if workers > opts.Chains {
		workers = opts.Chains
	}
	pool := opts.Pool
	if pool == nil && workers > 1 {
		owned := workspan.NewPool(workers, workspan.WorkStealing)
		defer owned.Close()
		pool = owned
	}
	if opts.Chains == 1 && opts.Pool != nil {
		// A single chain gains nothing from the pool; run it inline so a
		// shared pool is not occupied by a serial loop.
		pool = nil
	}

	for done < opts.Iters {
		if ctx := opts.Context; ctx != nil {
			select {
			case <-ctx.Done():
				// Deadline or cancellation: the previous barrier committed
				// a consistent state (and checkpoint, if requested), so
				// stop here and hand back the best mapping so far with the
				// context's error. The caller treats it as a partial,
				// resumable result.
				emit(done, true)
				w := bestChain(chains, opts.Objective)
				return chains[w].best, chains[w].bestCost, ctx.Err()
			default:
			}
		}
		iters := segment
		if rest := opts.Iters - done; iters > rest {
			iters = rest
		}
		if pool == nil {
			for _, ch := range chains {
				ch.run(g, gfp, tgt, opts.Objective, cache, iters)
			}
		} else {
			err := pool.For(0, len(chains), 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					chains[i].run(g, gfp, tgt, opts.Objective, cache, iters)
				}
			})
			if err != nil {
				return nil, fm.Cost{}, err
			}
		}
		done += iters
		if done < opts.Iters && len(chains) > 1 {
			w := bestChain(chains, opts.Objective)
			bs, bc := chains[w].best, chains[w].bestCost
			for _, ch := range chains {
				if opts.Objective.Value(bc) < opts.Objective.Value(ch.curCost) {
					// Adopt the global best as the current state (bs is
					// never mutated, so sharing the slice is safe); the
					// chain keeps its own RNG stream and temperature.
					ch.cur, ch.curCost = bs, bc
					for n := range ch.place {
						ch.place[n] = bs[n].Place
					}
					if ch.eng != nil {
						// Re-anchor the incremental engine on the adopted
						// mapping; Reset re-prices bs to exactly bc (the
						// delta evaluator's bit-exactness contract).
						if _, err := ch.eng.Reset(bs); err != nil {
							return nil, fm.Cost{}, err
						}
					}
				}
			}
		}
		if opts.CheckpointPath != "" {
			cp := &Checkpoint{
				Version: checkpointVersion,
				Graph:   gfp, Target: tgtDesc,
				Seed: opts.Seed, Iters: opts.Iters, Chains: opts.Chains,
				ExchangeEvery: opts.ExchangeEvery, Objective: int(opts.Objective),
				Done:        done,
				ChainStates: make([]ChainState, len(chains)),
			}
			for i, ch := range chains {
				cp.ChainStates[i] = ChainState{Draws: ch.src.n, Cur: ch.cur, Best: ch.best}
			}
			if err := SaveCheckpoint(opts.CheckpointPath, cp); err != nil {
				return nil, fm.Cost{}, err
			}
			if testBarrierHook != nil {
				testBarrierHook(done)
			}
		}
		if done < opts.Iters {
			emit(done, false)
		}
	}
	emit(done, true)
	w := bestChain(chains, opts.Objective)
	return chains[w].best, chains[w].bestCost, nil
}

// bestChain returns the index of the chain with the lowest best objective
// value, ties broken by lowest index so the winner is deterministic.
func bestChain(chains []*chain, obj Objective) int {
	w := 0
	for i, ch := range chains {
		if obj.Value(ch.bestCost) < obj.Value(chains[w].bestCost) {
			w = i
		}
	}
	return w
}

func mustEval(g *fm.Graph, s fm.Schedule, tgt fm.Target) fm.Cost {
	c, err := fm.Evaluate(g, s, tgt, fm.EvalOptions{SkipCheck: true})
	if err != nil {
		panic(fmt.Sprintf("search: evaluate: %v", err))
	}
	return c
}

// maxCoeff bounds the enumeration's place coefficients a1, a2 in
// [0, maxCoeff].
const maxCoeff = 1

// Affine2DOptions bounds the exhaustive affine enumeration.
type Affine2DOptions struct {
	// P is the linear-array length (placed along row 0 of the grid).
	P int
	// MaxTau bounds the time coefficients t1, t2 in [0, MaxTau] (not both
	// zero). Defaults to the target's hop+op latency so nearest-neighbour
	// skews are representable.
	MaxTau int64
	// Workers bounds the goroutines checking and pricing candidates.
	// 0 means one per CPU; 1 evaluates inline with no pool. Every tuple
	// has a fixed index in the enumeration and results merge in index
	// order, so the output is byte-identical for every worker count.
	Workers int
	// Cache, if non-nil, memoizes candidate evaluations. Within a single
	// sweep every candidate is distinct, so the cache pays off when the
	// caller shares it across sweeps or with an annealer on the same
	// graph.
	Cache *EvalCache
	// Pool, when non-nil, fans candidates out on this shared pool
	// instead of creating a private one; Workers is then ignored. The
	// merge stays index-ordered, so the output is unchanged.
	Pool *workspan.Pool
	// Context, when non-nil, bounds the sweep: once done, tuples not yet
	// priced are skipped and Exhaustive2D returns only the candidates it
	// evaluated so far (the serial candidate is always included, so the
	// result is never empty). Callers detect a cut-short sweep via
	// Context.Err(). Which tuples a cut-short sweep managed to price
	// depends on timing, so a partial result is best-so-far material,
	// not the sweep's deterministic answer — only a sweep that ran to
	// completion (Context.Err() == nil) carries the full guarantee.
	Context context.Context
	// Obs, when non-nil, receives sweep totals under "search.sweep.*"
	// (tuples enumerated, legal candidates, evaluations) when the sweep
	// finishes. Deterministic: set once from the merged result.
	Obs *obs.Registry
}

// affineTuple is one point of the enumerated mapping family.
type affineTuple struct {
	a1, a2 int
	t1, t2 int64
}

// Exhaustive2D enumerates affine mappings of a materialized 2-D
// recurrence graph: place ((a1*i + a2*j) mod P, 0), time t1*i + t2*j.
// Illegal mappings are discarded; every legal one is returned with its
// cost, sorted by time then energy. The serial projection (everything at
// node 0, ASAP times) is always included as the "serial" candidate.
// Candidates are checked and priced on a work-stealing pool (see
// Affine2DOptions.Workers); the merge is deterministic. An expired
// Affine2DOptions.Context cuts the sweep short — unpriced tuples are
// skipped and the partial candidate set is returned (see the option's
// doc for the weakened guarantee).
func Exhaustive2D(g *fm.Graph, dom *fm.Domain, tgt fm.Target, opts Affine2DOptions) []Candidate {
	if len(dom.Dims()) != 2 {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: malformed experiment setup is a caller bug)
		panic(fmt.Sprintf("search: Exhaustive2D needs rank 2, got %d", len(dom.Dims())))
	}
	if opts.P <= 0 || opts.P > tgt.Grid.Width {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: malformed experiment setup is a caller bug)
		panic(fmt.Sprintf("search: invalid P=%d for grid width %d", opts.P, tgt.Grid.Width))
	}
	if opts.MaxTau == 0 {
		opts.MaxTau = tgt.OpCycles(g.Op(g.Outputs()[0]), g.Bits(g.Outputs()[0])) + tgt.TransitCycles(1)
	}

	var tuples []affineTuple
	for a1 := 0; a1 <= maxCoeff; a1++ {
		for a2 := 0; a2 <= maxCoeff; a2++ {
			for t1 := int64(0); t1 <= opts.MaxTau; t1++ {
				for t2 := int64(0); t2 <= opts.MaxTau; t2++ {
					if t1 == 0 && t2 == 0 {
						continue
					}
					tuples = append(tuples, affineTuple{a1, a2, t1, t2})
				}
			}
		}
	}

	gfp := uint64(0)
	if opts.Cache != nil {
		gfp = g.Fingerprint()
	}
	// The cache-less path prices candidates through pooled incremental
	// evaluators: Reset prices a full schedule bit-identically to
	// Evaluate but reuses each evaluator's arenas, so a sweep stops
	// allocating event maps and scratch per candidate. The pool hands an
	// evaluator to whichever worker asks; results are unaffected because
	// Reset is deterministic and evaluator instances are stateless
	// between Resets.
	var movers sync.Pool
	movers.New = func() any {
		m, err := newMover(g, tgt)
		if err != nil {
			return nil
		}
		return m
	}
	priceFull := func(sched fm.Schedule) fm.Cost {
		if m, ok := movers.Get().(mover); ok && m != nil {
			if c, err := m.Reset(sched); err == nil {
				movers.Put(m)
				return c
			}
			movers.Put(m)
		}
		return mustEval(g, sched, tgt)
	}
	// Each tuple owns slot i of results; slots are disjoint, so the fan-
	// out is race-free, and compacting in index order reproduces the
	// serial append order exactly.
	results := make([]*Candidate, len(tuples))
	eval := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tp := tuples[i]
			sched := fm.ScheduleByIndex(dom, func(idx []int) fm.Assignment {
				return fm.Assignment{
					Place: geom.Pt(((tp.a1*idx[0]+tp.a2*idx[1])%opts.P+opts.P)%opts.P, 0),
					Time:  tp.t1*int64(idx[0]) + tp.t2*int64(idx[1]),
				}
			})
			if fm.Check(g, sched, tgt) != nil {
				continue
			}
			cost := fm.Cost{}
			if opts.Cache != nil {
				cost = opts.Cache.Eval(g, gfp, sched, tgt)
			} else {
				cost = priceFull(sched)
			}
			results[i] = &Candidate{
				Name:  fmt.Sprintf("place=(%d*i+%d*j)%%%d time=%d*i+%d*j", tp.a1, tp.a2, opts.P, tp.t1, tp.t2),
				Sched: sched,
				Cost:  cost,
			}
		}
	}
	pool := opts.Pool
	workers := resolveWorkers(opts.Workers)
	if pool != nil {
		workers = pool.Workers()
	}
	if pool == nil && workers > 1 && len(tuples) >= 2 {
		owned := workspan.NewPool(workers, workspan.WorkStealing)
		defer owned.Close()
		pool = owned
	}
	if pool == nil || len(tuples) < 2 {
		for i := range tuples {
			if opts.Context != nil && opts.Context.Err() != nil {
				break
			}
			eval(i, i+1)
		}
	} else {
		grain := len(tuples) / (8 * workers)
		if grain < 1 {
			grain = 1
		}
		err := pool.ForWith(workspan.RunOptions{Context: opts.Context}, 0, len(tuples), grain, eval)
		if err != nil && !(opts.Context != nil && opts.Context.Err() != nil) {
			//lint:allow panic(internal-invariant trap: absent a context cut, ForWith only fails if eval panicked and that bug should crash loudly)
			panic(fmt.Sprintf("search: exhaustive sweep: %v", err))
		}
	}

	out := make([]Candidate, 0, len(tuples)+1)
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	if r := opts.Obs; r.Enabled() {
		r.Gauge("search.sweep.tuples").Set(float64(len(tuples)))
		r.Gauge("search.sweep.legal").Set(float64(len(out)))
		r.Gauge("search.sweep.evaluated").Set(float64(len(out)))
		opts.Cache.PublishObs(r)
	}
	serial := fm.SerialSchedule(g, tgt, geom.Pt(0, 0))
	out = append(out, Candidate{Name: "serial", Sched: serial, Cost: priceFull(serial)})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost.Cycles != out[j].Cost.Cycles {
			return out[i].Cost.Cycles < out[j].Cost.Cycles
		}
		return out[i].Cost.EnergyFJ < out[j].Cost.EnergyFJ
	})
	return out
}

// BestChecked returns the candidate minimizing the objective, and
// whether one exists. An empty candidate slice returns (zero, false)
// instead of silently electing a zero-value winner — callers holding
// possibly-empty sweeps (a filtered Pareto front, a degraded service
// response) must use this form.
func BestChecked(cands []Candidate, obj Objective) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if obj.Value(c.Cost) < obj.Value(best.Cost) {
			best = c
		}
	}
	return best, true
}

// Pareto returns the time/energy Pareto front of cands: candidates not
// dominated (<= on both axes, < on one) by any other, sorted by time.
func Pareto(cands []Candidate) []Candidate {
	var front []Candidate
	for i, c := range cands {
		dominated := false
		for j, d := range cands {
			if i == j {
				continue
			}
			if d.Cost.Cycles <= c.Cost.Cycles && d.Cost.EnergyFJ <= c.Cost.EnergyFJ &&
				(d.Cost.Cycles < c.Cost.Cycles || d.Cost.EnergyFJ < c.Cost.EnergyFJ) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Cost.Cycles != front[j].Cost.Cycles {
			return front[i].Cost.Cycles < front[j].Cost.Cycles
		}
		return front[i].Cost.EnergyFJ < front[j].Cost.EnergyFJ
	})
	return front
}
