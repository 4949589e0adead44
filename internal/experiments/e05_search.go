package experiments

import (
	"errors"
	"math/rand"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/stats"
	"repro/internal/tech"
)

// E5 reproduces "one can systematically search the space of possible
// mappings to optimize a given figure of merit: execution time, energy
// per op, memory footprint, or some combination": an exhaustive sweep of
// an affine mapping family for the DP recurrence, plus a simulated-
// annealing placement search for an irregular graph, each optimized under
// different objectives, with the Pareto front sizing the trade space.
func E5() Result {
	g, dom, err := fm.Recurrence{
		Name: "dp",
		Dims: []int{12, 12},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}.Materialize()
	if err != nil {
		return failure("E5", err)
	}
	tgt := fm.DefaultTarget(4, 1)
	tgt.Grid.PitchMM = 0.1
	tgt.MemWordsPerNode = 1 << 20

	cands := search.Exhaustive2D(g, dom, tgt, search.Affine2DOptions{P: 4, MaxTau: 8})
	bestT, okT := search.BestChecked(cands, search.MinTime)
	bestE, okE := search.BestChecked(cands, search.MinEnergy)
	bestEDP, okEDP := search.BestChecked(cands, search.MinEDP)
	if !okT || !okE || !okEDP {
		return failure("E5", errors.New("the affine sweep found no mapping"))
	}
	front := search.Pareto(cands)
	var serial search.Candidate
	for _, c := range cands {
		if c.Name == "serial" {
			serial = c
		}
	}

	t := stats.NewTable("E5: mapping search (12x12 DP on 4-wide array)",
		"objective", "mapping", "cycles", "energy fJ")
	t.AddRow("min time", bestT.Name, bestT.Cost.Cycles, bestT.Cost.EnergyFJ)
	t.AddRow("min energy", bestE.Name, bestE.Cost.Cycles, bestE.Cost.EnergyFJ)
	t.AddRow("min energy-delay", bestEDP.Name, bestEDP.Cost.Cycles, bestEDP.Cost.EnergyFJ)
	t.AddRow("serial baseline", serial.Name, serial.Cost.Cycles, serial.Cost.EnergyFJ)
	t.AddNote("%d legal candidates in the affine family; Pareto front has %d points", len(cands), len(front))

	// Annealing on an irregular graph: must at least match the default
	// mapper it starts from.
	rng := rand.New(rand.NewSource(5))
	b := fm.NewBuilder("irregular")
	ids := []fm.NodeID{b.Input(32), b.Input(32)}
	for i := 0; i < 80; i++ {
		ids = append(ids, b.Op(tech.OpAdd, 32, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]))
	}
	b.MarkOutput(ids[len(ids)-1])
	ig := b.Build()
	def, err := fm.Evaluate(ig, fm.ListSchedule(ig, tgt), tgt, fm.EvalOptions{})
	if err != nil {
		return failure("E5", err)
	}
	_, annealed, err := search.AnnealResumable(ig, tgt, search.AnnealOptions{Iters: 800, Seed: 11})
	if err != nil {
		return failure("E5", err)
	}
	t.AddRow("anneal (irregular graph)", "placement search", annealed.Cycles, annealed.EnergyFJ)
	t.AddRow("default mapper (same graph)", "list schedule", def.Cycles, def.EnergyFJ)

	pass := bestT.Cost.Cycles < serial.Cost.Cycles && // search finds parallelism
		bestE.Cost.WireEnergy == 0 && // energy objective finds locality
		bestE.Cost.EnergyFJ <= bestT.Cost.EnergyFJ &&
		bestEDP.Cost.EnergyFJ*float64(bestEDP.Cost.Cycles) <=
			bestT.Cost.EnergyFJ*float64(bestT.Cost.Cycles) &&
		len(front) >= 2 && // a real trade space, not a single winner
		annealed.Cycles <= def.Cycles

	return Result{
		ID:    "E5",
		Claim: "mapping search optimizes a chosen figure of merit; time- and energy-optimal mappings differ",
		Table: t,
		Pass:  pass,
	}
}
