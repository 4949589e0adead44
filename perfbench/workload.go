package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/tech"
)

// Endpoints the generator drives.
const (
	pathEval   = "/v1/eval"
	pathSearch = "/v1/search"
)

// gridWidth is the target every workload prices on: a 4-wide, 1-high
// grid, so antidiagonal and affine mappings use up to four places.
const gridWidth = 4

// workloadSpec fixes one workload's shape. Each open-loop rate is about
// a fifth of the workload's closed-loop throughput on a 2-core host, so
// the generator's two connections are mostly idle and a stall of the
// shared host leaves a backlog that drains before the next one. Over
// four runs each, cluster-mix's p50 moved 1.1 times as much as its CPU
// per request from run to run at a third of its throughput, and 0.9
// times at a fifth. At 36 measured seconds an open loop holds about
// 7,800 evals and 261 (hot-eval) or 324 (cluster-mix) searches.
type workloadSpec struct {
	name    string
	cluster bool
	// rate is the open-loop offered rate in requests per second.
	rate float64
	// searchEvery interleaves one search after this many requests.
	// hot-eval searches only in the open loop (its closed loop measures
	// eval capacity); cluster-mix searches in both.
	searchEvery int
	// searchIters is the anneal budget of every search in the family.
	searchIters int
	generate    func(rng *rand.Rand, in *inputs, openN int) error
}

// closedShare is the share of the measured seconds spent in the closed
// loop. The open loop gets the rest: the eval p99 is taken over every
// answer, and the longer the loop, the less one stall of the shared host
// moves it.
const closedShare = 1.0 / 4

// workloads are the benchmark's traffic mixes. hot-eval exercises the
// request path's fixed costs on cache hits, cluster-mix the router, the
// wire and the scatter-gather exchange.
var workloads = []workloadSpec{
	{name: "hot-eval", rate: 300, searchEvery: 30, searchIters: 200, generate: genHot},
	{name: "cluster-mix", cluster: true, rate: 300, searchEvery: 24, searchIters: 90, generate: genClusterMix},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// recurrence is one generated recurrence with its materialized graph,
// which the oracle and the layer replay price against.
type recurrence struct {
	spec serve.RecurrenceSpec
	g    *fm.Graph
	dom  *fm.Domain
	gfp  uint64
}

// mapping is one schedule of one recurrence, in wire form.
type mapping struct {
	rec  int
	spec serve.ScheduleSpec
}

// request is one pre-serialized request of the sequence.
type request struct {
	path string
	body []byte
	rec  int
	// maps lists an eval's mappings in request order.
	maps []int
	// search indexes inputs.searches for a search request.
	search int
}

// inputs is everything a run sends, generated from the seed before any
// server starts.
type inputs struct {
	spec     workloadSpec
	tspec    serve.TargetSpec
	tgt      fm.Target
	recs     []recurrence
	maps     []mapping
	searches []serve.SearchRequest
	// searchRecs holds the recurrence each search anneals.
	searchRecs []recurrence
	// warm is set-up traffic that prices the working set and registers
	// every graph; in a cluster it goes straight to each key's replicas.
	warm []*request
	// burst is set-up traffic through the fleet's entry after warm: the
	// first run of every search and a pass over the request path.
	burst []*request
	// closed is the closed-loop sequence, which wraps.
	closed []*request
	// open is the open-loop sequence, sent at spec.rate.
	open []*request
}

// editDeps are the edit-distance dependences: every cell needs its
// upper, left and upper-left neighbours.
var editDeps = [][]int{{1, 0}, {0, 1}, {1, 1}}

var opNames = []string{"add", "cmp", "logic"}

var opClasses = map[string]tech.OpClass{"add": tech.OpAdd, "cmp": tech.OpCmp, "logic": tech.OpLogic}

// generate builds a workload's inputs; openSeconds sizes the open-loop
// sequence.
func generate(spec workloadSpec, seed int64, openSeconds float64) (*inputs, error) {
	in := &inputs{spec: spec, tspec: serve.TargetSpec{Width: gridWidth}, tgt: fm.DefaultTarget(gridWidth, 1)}
	rng := rand.New(rand.NewSource(seed))
	if err := spec.generate(rng, in, int(spec.rate*openSeconds)); err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.name, err)
	}
	return in, nil
}

// newRecurrence materializes one recurrence spec.
func newRecurrence(spec serve.RecurrenceSpec) (recurrence, error) {
	g, dom, err := fm.Recurrence{Name: spec.Name, Dims: spec.Dims, Deps: spec.Deps, Op: opClasses[spec.Op], Bits: 32}.Materialize()
	if err != nil {
		return recurrence{}, err
	}
	return recurrence{spec: spec, g: g, dom: dom, gfp: g.Fingerprint()}, nil
}

// genRecurrences draws count recurrences whose node counts are spread
// evenly over [lo, hi]: the seed picks each one's aspect ratio and op,
// so the working set's total size is the same for every seed. Extents
// and ops are distinct, so no two recurrences share a fingerprint.
func genRecurrences(rng *rand.Rand, prefix string, count, lo, hi int) ([]recurrence, error) {
	seen := make(map[string]bool)
	var out []recurrence
	for len(out) < count {
		cells := float64(lo) + float64(hi-lo)*float64(len(out))/float64(max(count-1, 1))
		n := max(2, int(math.Round(math.Sqrt(cells*(0.75+0.5*rng.Float64())))))
		m := max(2, int(math.Round(cells/float64(n))))
		op := opNames[rng.Intn(len(opNames))]
		key := fmt.Sprint(n, m, op)
		if seen[key] {
			continue
		}
		seen[key] = true
		r, err := newRecurrence(serve.RecurrenceSpec{Name: fmt.Sprintf("%s-%d", prefix, len(out)), Dims: []int{n, m}, Deps: editDeps, Op: op})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// buildSchedule is the oracle's own schedule builder: it turns a wire
// mapping into an fm.Schedule with the public fm constructors, the way
// the ScheduleSpec documentation defines each kind.
func buildSchedule(r *recurrence, ss serve.ScheduleSpec, tgt fm.Target) (fm.Schedule, error) {
	p := ss.P
	if p == 0 {
		p = tgt.Grid.Width
	}
	switch ss.Kind {
	case "serial":
		return fm.SerialSchedule(r.g, tgt, geom.Pt(0, 0)), nil
	case "list":
		return fm.ListSchedule(r.g, tgt), nil
	case "antidiagonal":
		stride := ss.Stride
		if stride == 0 {
			s, err := minStride(r, p, tgt)
			if err != nil {
				return nil, err
			}
			stride = s
		}
		return fm.AntiDiagonalScheduleChecked(r.dom, p, stride, geom.Pt(0, 0))
	case "affine":
		return fm.ScheduleByIndex(r.dom, func(idx []int) fm.Assignment {
			return fm.Assignment{
				Place: geom.Pt(((ss.A1*idx[0]+ss.A2*idx[1])%p+p)%p, 0),
				Time:  ss.T1*int64(idx[0]) + ss.T2*int64(idx[1]),
			}
		}), nil
	}
	return nil, fmt.Errorf("unknown schedule kind %q", ss.Kind)
}

// legal reports whether a mapping passes fm.Check. The service prices
// with SkipCheck, so only legal mappings are ever sent.
func legal(r *recurrence, ss serve.ScheduleSpec, tgt fm.Target) bool {
	sched, err := buildSchedule(r, ss, tgt)
	return err == nil && fm.Check(r.g, sched, tgt) == nil
}

// minStride is the least legal antidiagonal stride of r on p places.
func minStride(r *recurrence, p int, tgt fm.Target) (int64, error) {
	out := r.g.Outputs()[0]
	return fm.MinAntiDiagonalStrideChecked(tgt, r.g.Op(out), r.g.Bits(out), r.dom.Dims()[1], p)
}

// affineCandidate draws row-cyclic affine coefficients: place i mod p
// (or -i mod p), time t1*i + t2*j with t1 at least a full row of t2
// steps, so times on one place never collide. fm.Check still decides.
func affineCandidate(rng *rand.Rand, r *recurrence, tgt fm.Target) serve.ScheduleSpec {
	op := tgt.OpCycles(opClasses[r.spec.Op], 32)
	p := 2 + rng.Intn(gridWidth-1)
	a1 := 1
	if rng.Intn(2) == 1 {
		a1 = p - 1
	}
	t2 := op + int64(rng.Intn(4))
	t1 := int64(r.dom.Dims()[1])*t2 + int64(rng.Intn(32))
	return serve.ScheduleSpec{Kind: "affine", P: p, A1: a1, T1: t1, T2: t2}
}

// hotMappings gives r its four schedule kinds — serial, list, minimum
// antidiagonal and one legal affine — substituting a two-place
// antidiagonal of a distinct stride for any kind fm.Check refuses.
func hotMappings(rng *rand.Rand, in *inputs, ri int) error {
	r := &in.recs[ri]
	kinds := []serve.ScheduleSpec{{Kind: "serial"}, {Kind: "list"}, {Kind: "antidiagonal", P: gridWidth}, {}}
	for range 32 {
		if c := affineCandidate(rng, r, in.tgt); legal(r, c, in.tgt) {
			kinds[3] = c
			break
		}
	}
	lo, err := minStride(r, 2, in.tgt)
	if err != nil {
		return err
	}
	for i, ss := range kinds {
		if ss.Kind == "" || !legal(r, ss, in.tgt) {
			ss = serve.ScheduleSpec{Kind: "antidiagonal", P: 2, Stride: lo + int64(i)}
			if !legal(r, ss, in.tgt) {
				return fmt.Errorf("%s: no legal substitute for kind %d", r.spec.Name, i)
			}
		}
		in.maps = append(in.maps, mapping{rec: ri, spec: ss})
	}
	return nil
}

// evalRequest serializes an eval of maps, inline or by graph fingerprint.
func (in *inputs) evalRequest(maps []int, inline bool) (*request, error) {
	ri := in.maps[maps[0]].rec
	r := &in.recs[ri]
	req := serve.EvalRequest{Target: in.tspec}
	if inline {
		spec := r.spec
		req.Recurrence = &spec
	} else {
		req.GraphFP = fmt.Sprintf("%x", r.gfp)
	}
	for _, mi := range maps {
		req.Schedules = append(req.Schedules, in.maps[mi].spec)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &request{path: pathEval, body: body, rec: ri, maps: maps}, nil
}

// genSearches builds the recurring search family: four anneals over
// small recurrences, each with its own graph so no search's stored best
// can improve another's answer.
func genSearches(rng *rand.Rand, in *inputs) error {
	recs, err := genRecurrences(rng, "search", 4, 64, 144)
	if err != nil {
		return err
	}
	in.searchRecs = recs
	for i := range recs {
		spec := recs[i].spec
		in.searches = append(in.searches, serve.SearchRequest{
			Recurrence: &spec, Target: in.tspec, Kind: "anneal", Objective: "time",
			Iters: in.spec.searchIters, Chains: 2, Seed: int64(i + 1),
		})
	}
	return nil
}

func (in *inputs) searchRequest(i int) (*request, error) {
	body, err := json.Marshal(in.searches[i])
	if err != nil {
		return nil, err
	}
	return &request{path: pathSearch, body: body, search: i, rec: -1}, nil
}

// interleave inserts one search (cycling through the family) after every
// searchEvery entries of evals.
func (in *inputs) interleave(rng *rand.Rand, evals []*request) ([]*request, error) {
	out := make([]*request, 0, len(evals)+len(evals)/in.spec.searchEvery+1)
	for i, r := range evals {
		out = append(out, r)
		if (i+1)%in.spec.searchEvery == 0 {
			s, err := in.searchRequest(rng.Intn(len(in.searches)))
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// openEvals is the number of evals in an open-loop sequence of n
// requests, the rest being interleaved searches.
func (in *inputs) openEvals(n int) int {
	return n - n/(in.spec.searchEvery+1)
}

// hotEvals draws n single-mapping evals over the whole working set, half
// inline and half by fingerprint when inlineShare is 0.5.
func (in *inputs) hotEvals(rng *rand.Rand, n int, inlineShare float64) ([]*request, error) {
	out := make([]*request, 0, n)
	for range n {
		r, err := in.evalRequest([]int{rng.Intn(len(in.maps))}, rng.Float64() < inlineShare)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// warmWorkingSet prices every mapping once (inline, so every graph is
// registered) and queues every search's first run.
func (in *inputs) warmWorkingSet() error {
	for mi := range in.maps {
		r, err := in.evalRequest([]int{mi}, true)
		if err != nil {
			return err
		}
		in.warm = append(in.warm, r)
	}
	for i := range in.searches {
		r, err := in.searchRequest(i)
		if err != nil {
			return err
		}
		in.burst = append(in.burst, r)
	}
	return nil
}

// genHot: 32 recurrences of 256-2,304 nodes, four schedule kinds each,
// all priced during set-up; each request prices one mapping.
func genHot(rng *rand.Rand, in *inputs, openN int) error {
	recs, err := genRecurrences(rng, "hot", 32, 256, 2304)
	if err != nil {
		return err
	}
	in.recs = recs
	for ri := range in.recs {
		if err := hotMappings(rng, in, ri); err != nil {
			return err
		}
	}
	if err := genSearches(rng, in); err != nil {
		return err
	}
	if err := in.warmWorkingSet(); err != nil {
		return err
	}
	if in.closed, err = in.hotEvals(rng, 8192, 0.5); err != nil {
		return err
	}
	// A short pass over the request path warms connections and the heap.
	in.burst = append(in.burst, in.closed[:512]...)
	evals, err := in.hotEvals(rng, in.openEvals(openN), 0.5)
	if err != nil {
		return err
	}
	in.open, err = in.interleave(rng, evals)
	return err
}

// genClusterMix: 96 recurrences of 256-1,024 nodes spread across the
// ring, four schedule kinds each, every eval inline; searches from the
// recurring family are interleaved in both phases.
func genClusterMix(rng *rand.Rand, in *inputs, openN int) error {
	recs, err := genRecurrences(rng, "mix", 96, 256, 1024)
	if err != nil {
		return err
	}
	in.recs = recs
	for ri := range in.recs {
		if err := hotMappings(rng, in, ri); err != nil {
			return err
		}
	}
	if err := genSearches(rng, in); err != nil {
		return err
	}
	if err := in.warmWorkingSet(); err != nil {
		return err
	}
	evals, err := in.hotEvals(rng, 8192, 1)
	if err != nil {
		return err
	}
	if in.closed, err = in.interleave(rng, evals); err != nil {
		return err
	}
	in.burst = append(in.burst, in.closed[:256]...)
	if evals, err = in.hotEvals(rng, in.openEvals(openN), 1); err != nil {
		return err
	}
	in.open, err = in.interleave(rng, evals)
	return err
}
