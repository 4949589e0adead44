package fm

import (
	"fmt"

	"repro/internal/geom"
)

// DeltaEvaluator prices single-node placement moves incrementally: the
// anneal hot path in internal/fm/search relocates one node per step, and
// re-pricing the whole mapping from scratch (ASAPSchedule + Evaluate)
// allocates schedules, maps, and event lists on every move. The delta
// evaluator keeps the full pricing state of the *committed* mapping in
// flat, reusable arrays and answers "what would this mapping cost with
// node n at place p, re-timed ASAP?" without allocating.
//
// Bit-exactness contract: Propose returns a Cost bitwise identical to
//
//	sched := ASAPSchedule(g, placeWithMove, tgt)
//	cost, _ := Evaluate(g, sched, tgt, EvalOptions{SkipCheck: true})
//
// (with opts.ChargeInputLoad false, the search configuration). Exact
// integer fields are exact under any accumulation order; the float wire
// total is reproduced bit-for-bit because Evaluate and the delta path
// share the canonical producer-major accumulation of flows.go: moving
// node n invalidates only the flow partials of producers incident to n
// (wire cost depends on placement alone), so Propose recomputes those
// few partials and re-adds ALL partials in producer-ID order — the same
// float operation sequence Evaluate runs. internal/fm/deltacheck replays
// every move against the full evaluator to pin this contract.
//
// What a move of node n invalidates, and why the bound holds:
//
//   - Flow partials: wire energy, bit-hops, messages, and max transit of
//     a producer depend only on its place and its consumers' places, so
//     a move of n touches exactly {n} ∪ deps(n).
//   - Times: a node's ASAP start depends only on lower IDs (its
//     dependencies, and the earlier issues at its place), so every node
//     below n keeps its committed times. One allocation-free pass
//     re-times n and everything above it, half the graph on average,
//     with an epoch-stamped issue calendar instead of the map
//     ASAPSchedule uses. A place's calendar is seeded, when the pass
//     first meets it, from that place's last non-input member below
//     the pass. Committed times that Reset took from a schedule that is
//     not ASAP are re-timed too: the pass starts at the first of them
//     if that lies below n.
//   - Makespan: nodes below n contribute committed arrivals (finish
//     plus largest outgoing transit), read from prefix maxima that Reset
//     and Commit rebuild; only the transits of n's dependencies moved,
//     so the scan re-reads from the lowest of them up to n.
//   - Storage peaks: a place's resident-words profile changes only if
//     its membership changed (the moved node's old and new places), one
//     of its nodes' (born, free) interval changed (its start or last-use
//     time moved), or it holds an output and the schedule end moved.
//     Only those dirty places are re-swept, walking intrusive per-place
//     lists kept in node-ID order. Same-place ASAP starts strictly
//     increase with ID, so born (finish) times arrive nearly sorted and
//     an insertion pass orders them at near-linear cost; free times are
//     unordered and go through a binary min-heap, merged with the borns
//     in one sweep.
//   - Last uses, places used, totals: O(nodes + edges + grid) scans over
//     flat arrays, no allocation.
//
// A DeltaEvaluator is a two-phase state machine: Reset prices a full
// schedule and makes it current; ProposeCycles or Propose prices one
// candidate move into scratch state without touching the committed
// mapping (call either freely for rejected moves); Commit promotes the
// last proposal to committed. ProposeCycles prices the makespan alone,
// all a time objective's accept test reads, and Commit finishes the
// rest of the cost: last uses, wire totals, dirty places and their
// storage peaks, which Propose prices up front. Not safe for concurrent
// use — each annealing chain owns one.
type DeltaEvaluator struct {
	g   *Graph
	tgt Target

	// Immutable per-graph precompute.
	cons    []NodeID // flattened consumer lists (flows.go)
	consOff []int32
	opCyc   []int64 // OpCycles per node; 0 for inputs so fin = tme + opCyc
	words   []int   // storage words per node's value
	isOut   []bool  // declared output nodes
	hopCyc  int64   // Target.HopCycles()
	compE   float64 // compute energy: placement-invariant, Evaluate's order
	ops     int
	numP    int // grid points

	attached  bool // Reset has run
	proposed  bool // a proposal is pending Commit
	completed bool // the pending proposal's full cost is priced

	// Committed mapping state.
	place      []geom.Point
	placeID    []int32 // grid ID of place, per node
	tme        []int64 // start time per node
	fin        []int64 // value-exists time per node (finishTime)
	lastUse    []int64 // last consumer start per node; -1 if never consumed
	wireOut    []float64
	bhOut      []int64
	msgOut     []int64
	maxT       []int64 // largest transit among charged flows per producer
	preMk      []int64 // preMk[i]: largest fin+maxT over nodes below i
	asapBelow  int     // nodes below this ID start at their ASAP times
	schedEnd   int64   // Schedule.Makespan(): max start + 1
	placesUsed int
	cost       Cost

	// Intrusive per-place membership lists (committed placement), kept
	// in ascending node-ID order: candPeak relies on same-place start
	// times increasing with ID to get nearly-sorted born events.
	head       []int32 // per grid ID; -1 empty
	next, prev []int32 // per node
	placeCnt   []int32 // per grid ID
	placePeak  []int   // per grid ID; committed storage peak

	// Epoch-stamped scratch: a stamp equal to epoch means "written by the
	// current Propose"; bumping the epoch invalidates everything in O(1).
	epoch      uint32
	issueStamp []uint32 // per grid ID: ASAP issue calendar
	issueVal   []int64
	affStamp   []uint32 // per node: producer flows recomputed this epoch
	affIdx     []int32
	dirtyStamp []uint32 // per grid ID: storage peak recomputed this epoch
	dirtyIdx   []int32

	// Proposal scratch (valid while proposed, epoch-guarded).
	nTme, nFin []int64
	nLastUse   []int64
	affList    []NodeID
	affWire    []float64
	affBH      []int64
	affMsg     []int64
	affMaxT    []int64
	dirtyList  []int32
	nPeak      []int
	evScratch  []storageEvent
	bornT      []int64 // candPeak merge scratch: born times/weights, sorted
	bornW      []int64
	freeT      []int64 // free times/weights, min-heaped
	freeW      []int64
	dstScratch []geom.Point
	pN         NodeID
	pB         geom.Point
	pGidA      int32
	pGidB      int32
	pK         int // first re-timed node; below it nTme lags tme until complete
	pLo        int // lowest node whose arrival the proposal changed
	nMakespan  int64
	nSchedEnd  int64
	nCost      Cost
}

// NewDeltaEvaluator builds a delta evaluator for g on tgt. All scratch is
// allocated here, sized by the graph and grid, so Reset, ProposeCycles,
// Propose, Commit, and Snapshot (into a large-enough buffer) never
// allocate afterwards.
func NewDeltaEvaluator(g *Graph, tgt Target) (*DeltaEvaluator, error) {
	if g == nil {
		return nil, fmt.Errorf("fm: delta evaluator needs a graph")
	}
	tgt = tgt.withDefaults()
	if err := tgt.Validate(); err != nil {
		return nil, err
	}
	numP := tgt.Grid.Nodes()
	if numP <= 0 {
		return nil, fmt.Errorf("fm: delta evaluator needs a target grid, got %dx%d", tgt.Grid.Width, tgt.Grid.Height)
	}
	n := g.NumNodes()
	d := &DeltaEvaluator{g: g, tgt: tgt, hopCyc: tgt.HopCycles(), numP: numP}
	d.cons, d.consOff = consumerLists(g)

	d.opCyc = make([]int64, n)
	d.words = make([]int, n)
	d.isOut = make([]bool, n)
	maxFanin := 0
	for i := 0; i < n; i++ {
		id := NodeID(i)
		d.words[i] = tgt.Words(g.Bits(id))
		if deg := len(g.Deps(id)); deg > maxFanin {
			maxFanin = deg
		}
		if g.IsInput(id) {
			continue
		}
		d.opCyc[i] = tgt.OpCycles(g.Op(id), g.Bits(id))
		// Same node order as Evaluate's compute-energy loop; the sum is
		// placement-invariant, so it is computed exactly once.
		d.compE += tgt.Tech.OpEnergy(g.Op(id), g.Bits(id))
		d.ops++
	}
	for _, o := range g.Outputs() {
		d.isOut[o] = true
	}

	d.place = make([]geom.Point, n)
	d.placeID = make([]int32, n)
	d.tme = make([]int64, n)
	d.fin = make([]int64, n)
	d.lastUse = make([]int64, n)
	d.wireOut = make([]float64, n)
	d.bhOut = make([]int64, n)
	d.msgOut = make([]int64, n)
	d.maxT = make([]int64, n)
	d.preMk = make([]int64, n+1)

	d.head = make([]int32, numP)
	d.next = make([]int32, n)
	d.prev = make([]int32, n)
	d.placeCnt = make([]int32, numP)
	d.placePeak = make([]int, numP)

	d.issueStamp = make([]uint32, numP)
	d.issueVal = make([]int64, numP)
	d.affStamp = make([]uint32, n)
	d.affIdx = make([]int32, n)
	d.dirtyStamp = make([]uint32, numP)
	d.dirtyIdx = make([]int32, numP)

	d.nTme = make([]int64, n)
	d.nFin = make([]int64, n)
	d.nLastUse = make([]int64, n)
	d.affList = make([]NodeID, 0, maxFanin+1)
	d.affWire = make([]float64, maxFanin+1)
	d.affBH = make([]int64, maxFanin+1)
	d.affMsg = make([]int64, maxFanin+1)
	d.affMaxT = make([]int64, maxFanin+1)
	d.dirtyList = make([]int32, 0, numP)
	d.nPeak = make([]int, numP)
	d.evScratch = make([]storageEvent, 0, 2*n)
	d.bornT = make([]int64, 0, n)
	d.bornW = make([]int64, 0, n)
	d.freeT = make([]int64, 0, n)
	d.freeW = make([]int64, 0, n)
	d.dstScratch = make([]geom.Point, 0, maxFanout(d.consOff))
	return d, nil
}

// Reset prices sched in full and makes it the committed mapping. The
// returned Cost is bitwise identical to Evaluate(g, sched, tgt,
// EvalOptions{SkipCheck: true}). Every assignment must be on the target
// grid (Evaluate with SkipCheck tolerates off-grid places, but the delta
// evaluator indexes its calendars by grid ID); legality beyond that is
// not checked, matching the search hot path.
func (d *DeltaEvaluator) Reset(sched Schedule) (Cost, error) {
	g, n := d.g, d.g.NumNodes()
	if err := sched.validateLen(g); err != nil {
		return Cost{}, err
	}
	for i := range sched {
		if !d.tgt.Grid.Contains(sched[i].Place) {
			return Cost{}, &OffGridError{Node: NodeID(i), Place: sched[i].Place}
		}
	}
	d.proposed = false

	for q := 0; q < d.numP; q++ {
		d.head[q] = -1
		d.placeCnt[q] = 0
	}
	for i := 0; i < n; i++ {
		a := sched[i]
		gid := int32(d.tgt.Grid.ID(a.Place))
		d.place[i] = a.Place
		d.placeID[i] = gid
		d.tme[i] = a.Time
		d.fin[i] = a.Time + d.opCyc[i]
		d.placeCnt[gid]++
	}
	// Link in descending ID order so the sorted insert hits the head
	// every time and the lists come out ascending in O(n).
	for i := n - 1; i >= 0; i-- {
		d.link(i, d.placeID[i])
	}
	d.placesUsed = 0
	for q := 0; q < d.numP; q++ {
		if d.placeCnt[q] > 0 {
			d.placesUsed++
		}
	}

	for i := 0; i < n; i++ {
		d.lastUse[i] = -1
	}
	var end int64
	for i := 0; i < n; i++ {
		id := NodeID(i)
		if !g.IsInput(id) {
			for _, p := range g.Deps(id) {
				if d.tme[i] > d.lastUse[p] {
					d.lastUse[p] = d.tme[i]
				}
			}
		}
		if d.tme[i]+1 > end {
			end = d.tme[i] + 1
		}
	}
	d.schedEnd = end

	for p := 0; p < n; p++ {
		clist := d.cons[d.consOff[p]:d.consOff[p+1]]
		if len(clist) == 0 {
			d.wireOut[p], d.bhOut[p], d.msgOut[p], d.maxT[p] = 0, 0, 0, 0
			continue
		}
		d.wireOut[p], d.bhOut[p], d.msgOut[p], d.maxT[p] =
			producerFlows(g, d.tgt, NodeID(p), clist, d.placeAt, d.dstScratch[:0])
	}

	var wire float64
	var bh, msgs int64
	for p := 0; p < n; p++ {
		if d.consOff[p+1] == d.consOff[p] {
			continue
		}
		wire += d.wireOut[p]
		bh += d.bhOut[p]
		msgs += d.msgOut[p]
	}
	d.rebuildArrivals(0)

	peak := 0
	for q := int32(0); int(q) < d.numP; q++ {
		if d.placeCnt[q] == 0 {
			d.placePeak[q] = 0
			continue
		}
		evs := d.evScratch[:0]
		for i := d.head[q]; i >= 0; i = d.next[i] {
			evs = d.nodeEvents(evs, int(i), d.fin, d.lastUse, d.schedEnd)
		}
		pk := sweepEvents(evs)
		d.placePeak[q] = pk
		if pk > peak {
			peak = pk
		}
	}

	d.cost = d.assemble(d.preMk[n], wire, bh, msgs, peak, d.placesUsed)
	d.attached = true

	// A proposal keeps committed times only where they are ASAP, and
	// sched need not be. A null move priced from node 0 re-times every
	// node; the first start that differs ends the ASAP prefix.
	d.asapBelow = 0
	if n > 0 {
		d.ProposeCycles(0, d.place[0])
		for d.asapBelow < n && d.nTme[d.asapBelow] == d.tme[d.asapBelow] {
			d.asapBelow++
		}
		d.proposed = false
	}
	return d.cost, nil
}

// rebuildArrivals recomputes the committed arrival prefix maxima from
// node lo on: preMk[i+1] is the largest finish-plus-transit arrival of
// the nodes below i+1. The max transit is never negative, so a node's
// arrival is also at least its finish, as Evaluate's makespan reads.
func (d *DeltaEvaluator) rebuildArrivals(lo int) {
	for i := lo; i < len(d.fin); i++ {
		d.preMk[i+1] = max(d.preMk[i], d.fin[i]+d.maxT[i])
	}
}

// placeAt is the committed-placement lookup handed to producerFlows.
func (d *DeltaEvaluator) placeAt(n NodeID) geom.Point { return d.place[n] }

// Propose prices the mapping obtained by moving node n to place to and
// re-deriving all start times ASAP (the annealer's move semantics:
// ASAPSchedule over the perturbed placement). Committed state is not
// touched — a rejected move needs no cleanup; call Commit to adopt the
// proposal. The returned Cost is bitwise identical to evaluating that
// re-timed schedule in full. Propose is ProposeCycles followed at once
// by the completion Commit runs, so every proposal prices through one
// path.
//
// This and ProposeCycles are the anneal inner loop's costliest calls;
// TestAnnealMoveZeroAlloc pins one run at zero allocations and hotalloc
// pins every reachable call site statically.
//
//lint:hotpath
func (d *DeltaEvaluator) Propose(n NodeID, to geom.Point) Cost {
	d.ProposeCycles(n, to)
	d.complete()
	return d.nCost
}

// ProposeCycles prices only the makespan of the move Propose(n, to)
// prices: it returns exactly Propose(n, to).Cycles, the one field a time
// objective's accept test reads. The proposal stays pending as Propose's
// does. Commit finishes its cost before adopting it, so Cost afterwards
// is the full committed cost; a rejected proposal never pays for last
// uses, wire totals or storage peaks.
//
//lint:hotpath
func (d *DeltaEvaluator) ProposeCycles(n NodeID, to geom.Point) int64 {
	g, numN := d.g, d.g.NumNodes()
	if !d.attached {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: Propose before Reset is a caller bug)
		panic("fm: DeltaEvaluator.Propose before Reset")
	}
	if int(n) < 0 || int(n) >= numN {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: node out of range is a caller bug)
		//lint:allow alloc(unreachable in a correct run: the Sprintf only feeds a caller-bug panic)
		panic(fmt.Sprintf("fm: DeltaEvaluator.Propose of node %d in a %d-node graph", n, numN))
	}
	if !d.tgt.Grid.Contains(to) {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: off-grid move is a caller bug)
		//lint:allow alloc(unreachable in a correct run: the Sprintf only feeds a caller-bug panic)
		panic(fmt.Sprintf("fm: DeltaEvaluator.Propose moves node %d off-grid to %v", n, to))
	}
	d.bumpEpoch()
	d.pN, d.pB = n, to
	d.pGidA = d.placeID[n]
	d.pGidB = int32(d.tgt.Grid.ID(to))
	d.proposed, d.completed = true, false

	// 1. Producers whose flow partials a move invalidates: n itself and
	// its dependencies (their consumer n changed place). Placement-only,
	// so an unmoved placement invalidates nothing. The makespan reads only
	// their max transits, so their wire partials wait for complete; the
	// lowest of them is the lowest arrival the move can change.
	k := min(int(n), d.asapBelow)
	lo := k
	d.affList = d.affList[:0]
	if d.pGidA != d.pGidB {
		d.markAffected(n)
		for _, p := range g.Deps(n) {
			d.markAffected(p)
			lo = min(lo, int(p))
		}
		for j, p := range d.affList {
			src := d.candPlace(p)
			var mt int64
			for _, c := range d.cons[d.consOff[p]:d.consOff[p+1]] {
				// TransitCycles, as producerFlows charges it.
				mt = max(mt, int64(src.Manhattan(d.candPlace(c)))*d.hopCyc)
			}
			d.affMaxT[j] = mt
		}
	}
	d.pK, d.pLo = k, lo

	// 2. The makespan: committed arrivals below lo, committed finish
	// times plus the moved transits on [lo, k), then one ASAP pass from k
	// over the candidate placement. Below k the committed times are the
	// candidate's (no lower node moved, and they are ASAP), so only the
	// finish times the pass reads are copied. Dependencies always have
	// lower IDs, so nFin of every dep is final when read. The issue
	// calendar is the epoch-stamped equivalent of ASAPSchedule's
	// nextIssue map.
	makespan := d.preMk[lo]
	for i := lo; i < k; i++ {
		makespan = max(makespan, d.arrival(i, d.fin[i]))
	}
	copy(d.nFin[:k], d.fin[:k])
	for i := k; i < numN; i++ {
		id := NodeID(i)
		pl := d.place[i]
		gid := d.placeID[i]
		if id == n {
			pl, gid = to, d.pGidB
		}
		if g.IsInput(id) {
			d.nTme[i], d.nFin[i] = 0, 0
		} else {
			var start int64
			if d.issueStamp[gid] == d.epoch {
				start = d.issueVal[gid]
			} else {
				start = d.issueSeed(gid, i)
			}
			for _, p := range g.Deps(id) {
				ready := d.nFin[p]
				if hops := d.candPlace(p).Manhattan(pl); hops > 0 {
					ready += int64(hops) * d.hopCyc
				}
				if ready > start {
					start = ready
				}
			}
			d.nTme[i] = start
			d.nFin[i] = start + d.opCyc[i]
			d.issueStamp[gid] = d.epoch
			d.issueVal[gid] = start + 1
		}
		makespan = max(makespan, d.arrival(i, d.nFin[i]))
	}
	d.nMakespan = makespan
	return makespan
}

// candPlace is node x's place under the pending proposal.
func (d *DeltaEvaluator) candPlace(x NodeID) geom.Point {
	if x == d.pN {
		return d.pB
	}
	return d.place[x]
}

// arrival is node i's makespan term under the pending proposal: its
// finish time f plus its largest outgoing transit, which is never
// negative.
func (d *DeltaEvaluator) arrival(i int, f int64) int64 {
	if d.affStamp[i] == d.epoch {
		return f + d.affMaxT[d.affIdx[i]]
	}
	return f + d.maxT[i]
}

// issueSeed is place gid's issue calendar when the re-timing pass first
// meets it, at node i: one past the start of the place's last non-input
// member below i under the candidate placement, or 0 if it has none.
// Inputs take no issue slot. That member lies below the pass's first
// node (a non-input member the pass had reached would have stamped the
// calendar already), so its committed start is its candidate start.
func (d *DeltaEvaluator) issueSeed(gid int32, i int) int64 {
	moved := d.pGidA != d.pGidB
	j := d.prev[i]
	if moved && i == int(d.pN) {
		// n is not linked at its new place: find the member below it.
		j = -1
		for c := d.head[gid]; c >= 0 && int(c) < i; c = d.next[c] {
			j = c
		}
	}
	for j >= 0 && (d.g.IsInput(NodeID(j)) || (moved && NodeID(j) == d.pN)) {
		j = d.prev[j]
	}
	if j < 0 {
		return 0
	}
	return d.tme[j] + 1
}

// complete prices the rest of the pending proposal's cost once its
// makespan is known: last uses and the schedule end, wire totals, dirty
// places and their storage peaks, places used. Propose runs it at once;
// after ProposeCycles, Commit runs it for the accepted moves only.
func (d *DeltaEvaluator) complete() {
	if d.completed {
		return
	}
	g, numN, n := d.g, d.g.NumNodes(), d.pN
	moved := d.pGidA != d.pGidB
	// Commit swaps the time arrays, so below the re-timed nodes nTme may
	// still hold an older schedule: copy in the committed prefix.
	copy(d.nTme[:d.pK], d.tme[:d.pK])

	// 3. Last uses and the schedule end, over the whole candidate: a
	// re-timed consumer moves the last use of a node below n too.
	// Consumers have higher IDs, so each node's -1 lands first.
	var end int64
	for i := 0; i < numN; i++ {
		id := NodeID(i)
		t := d.nTme[i]
		d.nLastUse[i] = -1
		if !g.IsInput(id) {
			for _, p := range g.Deps(id) {
				if t > d.nLastUse[p] {
					d.nLastUse[p] = t
				}
			}
		}
		end = max(end, t+1)
	}
	d.nSchedEnd = end

	// 4. Totals: integer fields are order-exact; the float wire total
	// re-adds every producer partial in ID order — the canonical sequence
	// of flows.go — substituting the partials of step 1's producers.
	for j, p := range d.affList {
		clist := d.cons[d.consOff[p]:d.consOff[p+1]]
		d.affWire[j], d.affBH[j], d.affMsg[j], _ =
			//lint:allow alloc(the closure never escapes producerFlows, so escape analysis keeps it on the stack; TestAnnealMoveZeroAlloc pins this at runtime)
			producerFlows(g, d.tgt, p, clist, d.candPlace, d.dstScratch[:0])
	}
	var wire float64
	var bh, msgs int64
	for p := 0; p < numN; p++ {
		if d.consOff[p+1] == d.consOff[p] {
			continue
		}
		if d.affStamp[p] == d.epoch {
			k := d.affIdx[p]
			wire += d.affWire[k]
			bh += d.affBH[k]
			msgs += d.affMsg[k]
		} else {
			wire += d.wireOut[p]
			bh += d.bhOut[p]
			msgs += d.msgOut[p]
		}
	}

	// 5. Dirty places: membership changed (old and new place of n), a
	// member's (born, free) interval changed (its start or last-use time
	// moved), or — when the schedule end moved — any place holding an
	// output, whose free time is pinned to the end.
	d.dirtyList = d.dirtyList[:0]
	d.markDirty(d.pGidA)
	d.markDirty(d.pGidB)
	for i := 0; i < numN; i++ {
		if d.nTme[i] != d.tme[i] || d.nLastUse[i] != d.lastUse[i] {
			gid := d.placeID[i]
			if NodeID(i) == n {
				gid = d.pGidB
			}
			d.markDirty(gid)
		}
	}
	if d.nSchedEnd != d.schedEnd {
		for _, o := range g.Outputs() {
			gid := d.placeID[o]
			if o == n {
				gid = d.pGidB
			}
			d.markDirty(gid)
		}
	}
	for k, q := range d.dirtyList {
		d.nPeak[k] = d.candPeak(q, moved)
	}
	peak := 0
	for q := 0; q < d.numP; q++ {
		pk := d.placePeak[q]
		if d.dirtyStamp[q] == d.epoch {
			pk = d.nPeak[d.dirtyIdx[q]]
		}
		if pk > peak {
			peak = pk
		}
	}

	pu := d.placesUsed
	if moved {
		if d.placeCnt[d.pGidA] == 1 {
			pu--
		}
		if d.placeCnt[d.pGidB] == 0 {
			pu++
		}
	}

	d.nCost = d.assemble(d.nMakespan, wire, bh, msgs, peak, pu)
	d.completed = true
}

// Commit promotes the last proposal to the committed mapping, first
// finishing its cost if ProposeCycles priced only the makespan: O(dirty)
// writebacks, pointer swaps of the time arrays, and the arrival prefix
// maxima rebuilt from the lowest node whose arrival moved.
//
//lint:hotpath
func (d *DeltaEvaluator) Commit() {
	if !d.proposed {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: Commit without a pending Propose is a caller bug)
		panic("fm: DeltaEvaluator.Commit without a pending Propose")
	}
	d.complete()
	for k, p := range d.affList {
		d.wireOut[p] = d.affWire[k]
		d.bhOut[p] = d.affBH[k]
		d.msgOut[p] = d.affMsg[k]
		d.maxT[p] = d.affMaxT[k]
	}
	if d.pGidA != d.pGidB {
		d.unlink(int(d.pN), d.pGidA)
		d.link(int(d.pN), d.pGidB)
		d.placeCnt[d.pGidA]--
		d.placeCnt[d.pGidB]++
		d.place[d.pN] = d.pB
		d.placeID[d.pN] = d.pGidB
	}
	d.tme, d.nTme = d.nTme, d.tme
	d.fin, d.nFin = d.nFin, d.fin
	d.lastUse, d.nLastUse = d.nLastUse, d.lastUse
	for k, q := range d.dirtyList {
		d.placePeak[q] = d.nPeak[k]
	}
	d.rebuildArrivals(d.pLo)
	d.asapBelow = len(d.tme)
	d.schedEnd = d.nSchedEnd
	d.placesUsed = d.nCost.PlacesUsed
	d.cost = d.nCost
	d.proposed = false
}

// Cost returns the committed mapping's cost.
func (d *DeltaEvaluator) Cost() Cost { return d.cost }

// Snapshot writes the committed mapping into dst (reusing its storage
// when large enough — pass a preallocated buffer for an allocation-free
// copy) and returns it.
func (d *DeltaEvaluator) Snapshot(dst Schedule) Schedule {
	n := d.g.NumNodes()
	if cap(dst) < n {
		dst = make(Schedule, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = Assignment{Place: d.place[i], Time: d.tme[i]}
	}
	return dst
}

// assemble builds a Cost with the exact field expressions Evaluate uses,
// so the float derivations (TimePS, EnergyFJ) run the same operations.
func (d *DeltaEvaluator) assemble(makespan int64, wire float64, bh, msgs int64, peak, placesUsed int) Cost {
	var c Cost
	c.ComputeEnergy = d.compE
	c.WireEnergy = wire
	c.BitHops = bh
	c.Messages = msgs
	c.Ops = d.ops
	c.Cycles = makespan
	c.TimePS = float64(makespan) * d.tgt.CyclePS
	c.EnergyFJ = c.ComputeEnergy + c.WireEnergy + c.OffChipEnergy
	c.PeakWordsPerNode = peak
	c.PlacesUsed = placesUsed
	return c
}

func (d *DeltaEvaluator) bumpEpoch() {
	d.epoch++
	if d.epoch == 0 {
		for i := range d.issueStamp {
			d.issueStamp[i] = 0
		}
		for i := range d.affStamp {
			d.affStamp[i] = 0
		}
		for i := range d.dirtyStamp {
			d.dirtyStamp[i] = 0
		}
		d.epoch = 1
	}
}

//lint:allow alloc(affList is Reset-preallocated to capacity numNodes, so the append never grows)
func (d *DeltaEvaluator) markAffected(p NodeID) {
	if d.affStamp[p] == d.epoch {
		return
	}
	d.affStamp[p] = d.epoch
	d.affIdx[p] = int32(len(d.affList))
	d.affList = append(d.affList, p)
}

//lint:allow alloc(dirtyList is Reset-preallocated to capacity numPlaces, so the append never grows)
func (d *DeltaEvaluator) markDirty(gid int32) {
	if d.dirtyStamp[gid] == d.epoch {
		return
	}
	d.dirtyStamp[gid] = d.epoch
	d.dirtyIdx[gid] = int32(len(d.dirtyList))
	d.dirtyList = append(d.dirtyList, gid)
}

// candPeak computes the candidate storage peak of one place: committed
// membership adjusted for the move, candidate (born, free) intervals.
// It is the hottest delta operation, so instead of sorting all events
// it exploits structure: members iterate in ID order, same-place starts
// strictly increase with ID, and finish adds only a small op latency —
// so born times arrive nearly sorted and an insertion pass orders them
// at near-linear cost. Free times (last consumer starts) carry no such
// order and go through a binary min-heap. The merge applies frees
// before borns at equal instants, exactly sweepEvents' comparator; the
// peak is an integer prefix-sum maximum, identical under any tie order
// within an instant, so the result matches the full sort bit for bit.
func (d *DeltaEvaluator) candPeak(q int32, moved bool) int {
	bT, bW := d.bornT[:0], d.bornW[:0]
	fT, fW := d.freeT[:0], d.freeW[:0]
	for i := d.head[q]; i >= 0; i = d.next[i] {
		if moved && NodeID(i) == d.pN {
			continue
		}
		bT, bW, fT, fW = d.pushInterval(bT, bW, fT, fW, int(i))
	}
	if moved && q == d.pGidB {
		bT, bW, fT, fW = d.pushInterval(bT, bW, fT, fW, int(d.pN))
	}
	heapifyMin(fT, fW)
	var cur, peak int64
	nf := len(fT)
	for k := 0; k < len(bT); k++ {
		for nf > 0 && fT[0] <= bT[k] {
			cur -= fW[0]
			nf = popMin(fT, fW, nf)
		}
		cur += bW[k]
		if cur > peak {
			peak = cur
		}
	}
	return int(peak)
}

// pushInterval appends node i's candidate storage interval: the born
// time insertion-sorted into (bT, bW), the free time pushed onto the
// pending lists heapified later. Free-time semantics mirror
// storageEvents: outputs live to the schedule end; an unconsumed value
// still occupies its production cycle; the -w event lands at free+1.
//
//lint:allow alloc(all four slices are Reset-preallocated scratch with capacity numNodes+1, so the appends never grow)
func (d *DeltaEvaluator) pushInterval(bT, bW, fT, fW []int64, i int) ([]int64, []int64, []int64, []int64) {
	free := d.nLastUse[i]
	if d.isOut[i] {
		free = d.nSchedEnd
	}
	if free < 0 {
		free = d.nFin[i]
	}
	w := int64(d.words[i])
	t := d.nFin[i]
	bT, bW = append(bT, 0), append(bW, 0)
	j := len(bT) - 1
	for j > 0 && bT[j-1] > t {
		bT[j], bW[j] = bT[j-1], bW[j-1]
		j--
	}
	bT[j], bW[j] = t, w
	return bT, bW, append(fT, free+1), append(fW, w)
}

// heapifyMin builds a binary min-heap on t, carrying w alongside.
func heapifyMin(t, w []int64) {
	for i := len(t)/2 - 1; i >= 0; i-- {
		siftMin(t, w, i, len(t))
	}
}

// popMin removes the root of an n-element min-heap and returns n-1.
func popMin(t, w []int64, n int) int {
	n--
	t[0], t[n] = t[n], t[0]
	w[0], w[n] = w[n], w[0]
	siftMin(t, w, 0, n)
	return n
}

func siftMin(t, w []int64, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && t[c+1] < t[c] {
			c++
		}
		if t[root] <= t[c] {
			return
		}
		t[root], t[c] = t[c], t[root]
		w[root], w[c] = w[c], w[root]
		root = c
	}
}

// nodeEvents appends node i's alloc/free event pair, mirroring
// storageEvents: the value is born at its finish time and freed after
// its last consumer starts; outputs live to the schedule end; a value
// nobody consumes still occupies its production cycle.
func (d *DeltaEvaluator) nodeEvents(evs []storageEvent, i int, fin, lastUse []int64, end int64) []storageEvent {
	free := lastUse[i]
	if d.isOut[i] {
		free = end
	}
	if free < 0 {
		free = fin[i]
	}
	w := d.words[i]
	return append(evs, storageEvent{time: fin[i], delta: w}, storageEvent{time: free + 1, delta: -w})
}

// sweepEvents is sweepPeak minus the peak-time report, with an in-place
// heapsort instead of sort.Slice so the hot path stays allocation-free.
// The comparator matches sweepPeak: time order, frees before allocations
// at the same instant. (Heapsort is unstable, but events equal under the
// comparator are interchangeable in a prefix-sum maximum.)
func sweepEvents(evs []storageEvent) int {
	heapSortEvents(evs)
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

func eventLess(a, b storageEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.delta < b.delta
}

func heapSortEvents(evs []storageEvent) {
	n := len(evs)
	for i := n/2 - 1; i >= 0; i-- {
		siftEvents(evs, i, n)
	}
	for i := n - 1; i > 0; i-- {
		evs[0], evs[i] = evs[i], evs[0]
		siftEvents(evs, 0, i)
	}
}

func siftEvents(evs []storageEvent, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && eventLess(evs[c], evs[c+1]) {
			c++
		}
		if !eventLess(evs[root], evs[c]) {
			return
		}
		evs[root], evs[c] = evs[c], evs[root]
		root = c
	}
}

// link inserts node i into place gid's membership list at its ID-sorted
// position. Reset links in descending ID order (O(1) head inserts);
// Commit relinks one node, walking at most the place's occupancy.
func (d *DeltaEvaluator) link(i int, gid int32) {
	prev, cur := int32(-1), d.head[gid]
	for cur >= 0 && cur < int32(i) {
		prev, cur = cur, d.next[cur]
	}
	d.next[i] = cur
	d.prev[i] = prev
	if cur >= 0 {
		d.prev[cur] = int32(i)
	}
	if prev >= 0 {
		d.next[prev] = int32(i)
	} else {
		d.head[gid] = int32(i)
	}
}

func (d *DeltaEvaluator) unlink(i int, gid int32) {
	p, nx := d.prev[i], d.next[i]
	if p >= 0 {
		d.next[p] = nx
	} else {
		d.head[gid] = nx
	}
	if nx >= 0 {
		d.prev[nx] = p
	}
}
