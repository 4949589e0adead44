// Command mapsearch searches the mapping space of a 2-D uniform
// recurrence (the paper's edit-distance dependence structure by default)
// and prints every legal affine candidate with its cost, the best mapping
// under each figure of merit, the time/energy Pareto front, and a
// multi-chain annealed placement for comparison —
// "one can systematically search the space of possible mappings to
// optimize a given figure of merit".
//
// Candidate evaluation fans out over -workers goroutines and the
// annealer runs -chains independent chains; both are deterministic, so
// changing either flag changes only the wall clock, never the output.
//
// With -checkpoint the annealer commits a crash-safe snapshot (JSON,
// atomic tmp+rename) at every exchange barrier; rerunning with -resume
// restarts from the last barrier and prints the same annealed placement
// an uninterrupted run would have, bit for bit. -resume fails if the
// checkpoint file is missing or belongs to different search settings.
//
// With -progress the annealer streams one JSON line per exchange
// barrier (candidates/sec, cache hit rate, best cost so far, per-chain
// temperatures) to the given file; the final line carries "final": true
// and exactly the cost the search returns. -obs dumps the full metrics
// registry (search, cache, scheduler) as JSON at exit. -cpuprofile and
// -memprofile write runtime/pprof profiles.
//
// Usage:
//
//	mapsearch -n 12 -p 4
//	mapsearch -n 16 -p 8 -tau 10 -pitch 0.1 -workers 8 -chains 4
//	mapsearch -iters 200000 -checkpoint /tmp/anneal.ckpt   # killable
//	mapsearch -iters 200000 -checkpoint /tmp/anneal.ckpt -resume
//	mapsearch -iters 50000 -progress /tmp/search.jsonl -obs /tmp/obs.json
//	mapsearch -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stats"
	"repro/internal/tech"
)

func main() {
	n := flag.Int("n", 12, "domain size (n x n recurrence)")
	p := flag.Int("p", 4, "linear-array length")
	tau := flag.Int64("tau", 8, "max time coefficient in the affine family")
	pitch := flag.Float64("pitch", 0.1, "grid pitch in mm")
	workers := flag.Int("workers", 0, "parallel evaluation workers (0 = one per CPU; results are identical for any value)")
	chains := flag.Int("chains", 4, "independent annealing chains")
	iters := flag.Int("iters", 2000, "annealing proposals per chain")
	seed := flag.Int64("seed", 1, "annealing seed (chain i uses seed+i)")
	checkpoint := flag.String("checkpoint", "", "write a crash-safe annealing checkpoint to this path at every exchange barrier")
	resume := flag.Bool("resume", false, "restore the annealer from -checkpoint before searching (requires the file to exist)")
	progress := flag.String("progress", "", "stream annealing progress as JSON lines to this path")
	obsOut := flag.String("obs", "", "write the metrics-registry snapshot as JSON to this path at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	flag.Parse()

	// Reject sizes the search cannot honour before any work: -p < 1 has
	// no processor row to map onto, and -iters < 1 would anneal a
	// different number of proposals than the banner reports.
	if *p < 1 {
		fmt.Fprintf(os.Stderr, "mapsearch: -p must be at least 1, got %d\n", *p)
		os.Exit(2)
	}
	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "mapsearch: -iters must be at least 1, got %d\n", *iters)
		os.Exit(2)
	}

	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
		os.Exit(2)
	}
	defer stopCPU()
	if *chains < 1 {
		*chains = 1 // mirror AnnealOptions' default so the banner reports the truth
	}
	if *resume {
		if *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "mapsearch: -resume requires -checkpoint")
			os.Exit(2)
		}
		if _, err := os.Stat(*checkpoint); err != nil {
			fmt.Fprintf(os.Stderr, "mapsearch: -resume: %v\n", err)
			os.Exit(2)
		}
	}

	g, dom, err := fm.Recurrence{
		Name: "dp",
		Dims: []int{*n, *n},
		Deps: [][]int{{1, 1}, {1, 0}, {0, 1}},
		Op:   tech.OpAdd,
		Bits: 32,
	}.Materialize()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
		os.Exit(2)
	}
	tgt := fm.DefaultTarget(*p, 1)
	tgt.Grid.PitchMM = *pitch
	tgt.MemWordsPerNode = 1 << 22

	var reg *obs.Registry
	if *obsOut != "" {
		reg = obs.New()
	}

	cache := search.NewEvalCache()
	start := time.Now()
	cands := search.Exhaustive2D(g, dom, tgt, search.Affine2DOptions{
		P: *p, MaxTau: *tau, Workers: *workers, Cache: cache, Obs: reg,
	})
	sweep := time.Since(start)
	t := stats.NewTable(
		fmt.Sprintf("legal affine mappings of the %dx%d recurrence on %d processors", *n, *n, *p),
		"mapping", "cycles", "energy fJ", "bit-hops", "peak mem")
	for _, c := range cands {
		t.AddRow(c.Name, c.Cost.Cycles, c.Cost.EnergyFJ, c.Cost.BitHops, c.Cost.PeakWordsPerNode)
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
		os.Exit(2)
	}

	best := func(obj search.Objective) search.Candidate {
		c, ok := search.BestChecked(cands, obj)
		if !ok {
			fmt.Fprintln(os.Stderr, "mapsearch: the sweep found no mapping")
			os.Exit(1)
		}
		return c
	}
	bt, be, bedp := best(search.MinTime), best(search.MinEnergy), best(search.MinEDP)
	fmt.Printf("\nbest by time:         %s  (%v)\n", bt.Name, bt.Cost)
	fmt.Printf("best by energy:       %s  (%v)\n", be.Name, be.Cost)
	fmt.Printf("best by energy-delay: %s  (%v)\n", bedp.Name, bedp.Cost)

	front := search.Pareto(cands)
	fmt.Printf("\ntime/energy Pareto front (%d points):\n", len(front))
	for _, c := range front {
		fmt.Printf("  %-40s cycles=%-8d energy=%.0f fJ\n", c.Name, c.Cost.Cycles, c.Cost.EnergyFJ)
	}

	var onProgress func(search.Progress)
	if *progress != "" {
		pf, err := os.Create(*progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
			os.Exit(2)
		}
		defer pf.Close()
		onProgress = search.ProgressWriter(pf, func(err error) {
			fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
		})
	}

	start = time.Now()
	_, annealed, err := search.AnnealResumable(g, tgt, search.AnnealOptions{
		Iters: *iters, Seed: *seed, Chains: *chains, Workers: *workers, Cache: cache,
		CheckpointPath: *checkpoint, Resume: *resume,
		OnProgress: onProgress, Obs: reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mapsearch: anneal: %v\n", err)
		os.Exit(2)
	}
	annealT := time.Since(start)
	fmt.Printf("\nannealed placement (%d chains x %d iters, seed %d): %v\n",
		*chains, *iters, *seed, annealed)
	cs := cache.SnapshotStats()
	fmt.Printf("search ran in %v (sweep) + %v (anneal); eval cache: %d hits / %d misses\n",
		sweep.Round(time.Millisecond), annealT.Round(time.Millisecond), cs.Hits, cs.Misses)

	if reg != nil {
		of, err := os.Create(*obsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
			os.Exit(2)
		}
		if err := reg.Snapshot().WriteJSON(of); err != nil {
			fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
			os.Exit(2)
		}
		if err := of.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
			os.Exit(2)
		}
	}
	if err := prof.WriteHeap(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "mapsearch: %v\n", err)
		os.Exit(2)
	}
}
