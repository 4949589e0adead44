package experiments

import (
	"math/rand"
	"reflect"
	"time"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/stats"
	"repro/internal/tech"
)

// E20 benchmarks the annealer's delta-evaluation hot path against the
// classic full-evaluation path on the same search: one irregular graph,
// one grid, identical options except the DisableDelta toggle. The claim
// under test is twofold — the incremental evaluator prices moves at
// least 10x faster than re-running ASAP + Evaluate per move, and it is
// bit-identical (same final schedule and cost, because every Metropolis
// decision sees the same numbers). The moves/sec figures feed the
// committed BENCH_panel.json baseline; cmd/benchcheck gates CI on the
// host-normalized speedup ratio so the hot path cannot silently decay.
func E20() Result {
	const (
		ops   = 300
		iters = 2000
		seed  = 31
	)
	rng := rand.New(rand.NewSource(seed))
	b := fm.NewBuilder("anneal-hotpath")
	ids := []fm.NodeID{b.Input(32), b.Input(32), b.Input(32), b.Input(32)}
	for i := 0; i < ops; i++ {
		ids = append(ids, b.Op(tech.OpAdd, 32, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]))
	}
	b.MarkOutput(ids[len(ids)-1])
	g := b.Build()
	tgt := fm.DefaultTarget(8, 4)
	opts := search.AnnealOptions{Iters: iters, Seed: seed, Chains: 1, Workers: 1}

	// Wall-clock timing, best of three (robust to scheduling noise, like
	// E8). moves/sec = iterations / elapsed for the single chain.
	timeAnneal := func(disableDelta bool) (fm.Schedule, fm.Cost, float64, error) {
		o := opts
		o.DisableDelta = disableDelta
		var sched fm.Schedule
		var cost fm.Cost
		var best time.Duration = 1<<62 - 1
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			var err error
			sched, cost, err = search.AnnealResumable(g, tgt, o)
			if err != nil {
				return nil, fm.Cost{}, 0, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return sched, cost, float64(iters) / best.Seconds(), nil
	}

	fullSched, fullCost, fullRate, err := timeAnneal(true)
	if err != nil {
		return failure("E20", err)
	}
	deltaSched, deltaCost, deltaRate, err := timeAnneal(false)
	if err != nil {
		return failure("E20", err)
	}
	speedup := deltaRate / fullRate
	equal := fullCost == deltaCost && reflect.DeepEqual(fullSched, deltaSched)

	t := stats.NewTable("E20: anneal move pricing (300-op irregular graph, 8x4 grid, 2000 moves)",
		"path", "moves/sec", "final cycles", "final energy fJ", "bit-identical")
	t.AddRow("full re-evaluation", fullRate, fullCost.Cycles, fullCost.EnergyFJ, verdict(true))
	t.AddRow("delta evaluation", deltaRate, deltaCost.Cycles, deltaCost.EnergyFJ, verdict(equal))
	t.AddNote("speedup %.1fx, target >= 10x; identical trajectories are required, not just similar results", speedup)

	pass := equal && speedup >= 10
	return Result{
		ID:    "E20",
		Claim: "delta evaluation prices anneal moves >= 10x faster than full re-evaluation, bit-identically",
		Table: t,
		Pass:  pass,
		Notes: []string{"wall-clock measurement; absolute moves/sec vary with host, the speedup ratio is host-normalized"},
		Metrics: []Metric{
			{Name: "anneal_moves_per_sec_full", Value: fullRate, Unit: "moves/sec", Better: "higher"},
			{Name: "anneal_moves_per_sec_delta", Value: deltaRate, Unit: "moves/sec", Better: "higher"},
			{Name: "anneal_delta_speedup", Value: speedup, Unit: "ratio", Better: "higher", RelTol: 0.35},
		},
	}
}
