// The paper's worked example, end to end: the edit-distance recurrence
//
//	H(i,j) = min(H(i-1,j-1)+f(R[i],Q[j]), H(i-1,j)+D, H(i,j-1)+I, 0)
//	Map H(i,j) at i % P  time floor(i/P)*N + j
//
// computed four ways — serial loop nest, work-span wavefront on real
// goroutines, the F&M dataflow graph interpreted semantically, and the
// F&M anti-diagonal mapping priced on the 5nm grid — all agreeing on the
// answer while the cost model separates their prices.
//
//	go run ./examples/editdistance
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/internal/algorithms/editdist"
	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/trace"
	"repro/internal/workspan"
)

func main() {
	r := []byte("accommodate")
	q := []byte("acomodate")
	costs := editdist.Levenshtein()

	// 1. Serial RAM loop nest.
	serialDist := editdist.Distance(r, q, costs)
	fmt.Printf("serial DP:            distance(%q, %q) = %d\n", r, q, serialDist)

	// 2. Work-span wavefront on real goroutines.
	pool := workspan.NewPool(runtime.NumCPU(), workspan.WorkStealing)
	defer pool.Close()
	var wf [][]int32
	pool.Run(func(c *workspan.Ctx) {
		wf = editdist.Wavefront(c, r, q, costs, 4)
	})
	fmt.Printf("work-span wavefront:  distance = %d\n", wf[len(r)-1][len(q)-1])

	// 3. The F&M function, interpreted (mapping-independent semantics).
	g, dom, err := editdist.Recurrence(r, q).Materialize()
	if err != nil {
		log.Fatal(err)
	}
	vals, err := fm.Interpret(g, nil, editdist.Evaluator(dom, r, q, costs))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("F&M dataflow graph:   distance = %d (%d cells, depth %d)\n",
		vals[dom.Node(len(r)-1, len(q)-1)], g.CountOps(), g.Depth())

	// 4. The paper's mapping, priced. Bigger square inputs show the trend.
	n := 48
	rr := make([]byte, n)
	qq := make([]byte, n)
	tgt := fm.DefaultTarget(8, 1)
	tgt.Grid.PitchMM = 0.1
	tgt.MemWordsPerNode = 1 << 22
	serialCost, err := editdist.SerialMapping(rr, qq, tgt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmapping the %dx%d recurrence on the 5nm grid (0.1mm pitch):\n", n, n)
	fmt.Printf("  %-22s %v\n", "serial projection:", serialCost)
	for _, p := range []int{2, 4, 8} {
		c, err := editdist.PaperMapping(rr, qq, p, tgt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s %v  (speedup %.2fx)\n",
			fmt.Sprintf("anti-diagonal P=%d:", p), c,
			float64(serialCost.Cycles)/float64(c.Cycles))
	}

	// Space-time diagram of the marching anti-diagonals (small instance).
	small := 12
	sg, sdom, err := editdist.Recurrence(make([]byte, small), make([]byte, small)).Materialize()
	if err != nil {
		log.Fatal(err)
	}
	stgt := fm.DefaultTarget(4, 1)
	stgt.Grid.PitchMM = 0.1
	stgt.MemWordsPerNode = 1 << 20
	stride, err := fm.MinAntiDiagonalStrideChecked(stgt, 0, 32, small, 4)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := fm.AntiDiagonalScheduleChecked(sdom, 4, stride, geom.Pt(0, 0))
	if err != nil {
		log.Fatal(err)
	}
	tr := trace.New()
	if _, err := fm.Evaluate(sg, sched, stgt, fm.EvalOptions{Trace: tr}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmarching anti-diagonals, %dx%d on 4 processors:\n%s",
		small, small, trace.Render(tr, trace.RenderOptions{Grid: stgt.Grid, Columns: 72}))
}
