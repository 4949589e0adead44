package fm

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Recurrence is a uniform recurrence equation over a rectangular domain:
// every cell applies the same operation to cells at fixed negative
// offsets. This is the function form of the paper's worked example,
//
//	Forall i, j in (0:N-1, 0:N-1)
//	  H(i,j) = min(H(i-1,j-1)+f(R[i],Q[j]), H(i-1,j)+D, H(i,j-1)+I, 0)
//
// which is Deps = {(1,1),(1,0),(0,1)} over an N x N domain. Cells whose
// producers fall outside the domain simply have fewer dependencies
// (boundary conditions are constants folded into the cell).
type Recurrence struct {
	// Name labels the generated graph.
	Name string
	// Dims are the domain extents, e.g. {N, N}.
	Dims []int
	// Deps are the dependence offsets, subtracted from a cell's index to
	// find each producer. Every offset must be lexicographically positive
	// (first nonzero component > 0) so the dependence relation is acyclic
	// and row-major order is a topological order.
	Deps [][]int
	// Op and Bits describe each cell's computation.
	Op   tech.OpClass
	Bits int
}

// Domain maps between multi-indices and the NodeIDs of a materialized
// recurrence. Cell (i0,i1,...) is node i0*S0 + i1*S1 + ... in row-major
// order, so the cell IDs coincide with linear indices.
type Domain struct {
	dims    []int
	strides []int
}

// Size returns the number of cells.
func (d *Domain) Size() int {
	n := 1
	for _, e := range d.dims {
		n *= e
	}
	return n
}

// Dims returns the domain extents. The slice must not be modified.
func (d *Domain) Dims() []int { return d.dims }

// Node returns the NodeID of the cell at idx.
func (d *Domain) Node(idx ...int) NodeID {
	if len(idx) != len(d.dims) {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: malformed experiment setup is a caller bug)
		panic(fmt.Sprintf("fm: index rank %d, domain rank %d", len(idx), len(d.dims)))
	}
	lin := 0
	for k, v := range idx {
		if v < 0 || v >= d.dims[k] {
			//lint:allow panic(argument-contract guard, like stdlib slice bounds: malformed experiment setup is a caller bug)
			panic(fmt.Sprintf("fm: index %v outside domain %v", idx, d.dims))
		}
		lin += v * d.strides[k]
	}
	return NodeID(lin)
}

// Index writes the multi-index of node n into dst (which must have the
// domain's rank) and returns it.
func (d *Domain) Index(n NodeID, dst []int) []int {
	if len(dst) != len(d.dims) {
		//lint:allow panic(argument-contract guard, like stdlib slice bounds: malformed experiment setup is a caller bug)
		panic(fmt.Sprintf("fm: dst rank %d, domain rank %d", len(dst), len(d.dims)))
	}
	lin := int(n)
	for k := range d.dims {
		dst[k] = lin / d.strides[k]
		lin %= d.strides[k]
	}
	return dst
}

// Validate reports structural errors in the recurrence.
func (r Recurrence) Validate() error {
	if len(r.Dims) == 0 {
		return fmt.Errorf("fm: recurrence %q has empty domain", r.Name)
	}
	for _, e := range r.Dims {
		if e <= 0 {
			return fmt.Errorf("fm: recurrence %q has non-positive extent %d", r.Name, e)
		}
	}
	if r.Bits <= 0 || r.Bits > 1<<20 {
		// The upper bound mirrors Builder.add's limit so Materialize
		// reports bad widths as errors instead of panicking mid-build.
		return fmt.Errorf("fm: recurrence %q has invalid width %d", r.Name, r.Bits)
	}
	for _, d := range r.Deps {
		if len(d) != len(r.Dims) {
			return fmt.Errorf("fm: recurrence %q: offset %v has rank %d, domain rank %d",
				r.Name, d, len(d), len(r.Dims))
		}
		if !lexPositive(d) {
			return fmt.Errorf("fm: recurrence %q: offset %v is not lexicographically positive", r.Name, d)
		}
	}
	return nil
}

func lexPositive(d []int) bool {
	for _, v := range d {
		if v > 0 {
			return true
		}
		if v < 0 {
			return false
		}
	}
	return false // all zero
}

// Materialize builds the dataflow graph of the recurrence. All cells are
// compute nodes (cells with no in-domain producers are source
// computations over boundary constants). Cells no other cell consumes are
// marked as outputs.
func (r Recurrence) Materialize() (*Graph, *Domain, error) {
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	rank := len(r.Dims)
	dom := &Domain{dims: append([]int(nil), r.Dims...), strides: make([]int, rank)}
	stride := 1
	for k := rank - 1; k >= 0; k-- {
		dom.strides[k] = stride
		stride *= r.Dims[k]
	}
	size := dom.Size()

	b := NewBuilder(r.Name)
	consumed := make([]bool, size)
	idx := make([]int, rank)
	prod := make([]int, rank)
	deps := make([]NodeID, 0, len(r.Deps))
	for lin := 0; lin < size; lin++ {
		dom.Index(NodeID(lin), idx)
		deps = deps[:0]
		for _, off := range r.Deps {
			in := true
			plin := 0
			for k := range prod {
				prod[k] = idx[k] - off[k]
				if prod[k] < 0 || prod[k] >= r.Dims[k] {
					in = false
					break
				}
				plin += prod[k] * dom.strides[k]
			}
			if in {
				deps = append(deps, NodeID(plin))
				consumed[plin] = true
			}
		}
		if id := b.Op(r.Op, r.Bits, deps...); int(id) != lin {
			//lint:allow panic(unreachable: Build assigns cell IDs densely in the same order they were interned)
			panic("fm: recurrence cell IDs out of sync")
		}
	}
	for lin := 0; lin < size; lin++ {
		if !consumed[lin] {
			b.MarkOutput(NodeID(lin))
		}
	}
	return b.Build(), dom, nil
}

// Fingerprint returns the structural fingerprint of the graph
// Materialize would build — Materialize's Graph.Fingerprint() — without
// building it. It validates exactly as Materialize does and streams the
// same hash words in the same order: the cell count; for every cell its
// op word, its in-domain producers in offset order and the list
// terminator; then every cell no other cell consumes. A cell is consumed
// exactly when stepping forward by some offset stays in the domain, so
// neither pass needs per-cell storage: the working space is O(rank +
// offsets), on the stack for rank up to 4 and up to 8 offsets.
func (r Recurrence) Fingerprint() (uint64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	var idxBuf [4]int
	var distBuf [8]int
	idx, dist := idxBuf[:0], distBuf[:0]
	size := 1
	for _, e := range r.Dims {
		idx = append(idx, 0)
		size *= e
	}
	// dist[j] is offset j's row-major distance: cell lin's producer
	// through offset j is cell lin-dist[j].
	for _, off := range r.Deps {
		d, stride := 0, 1
		for k := len(r.Dims) - 1; k >= 0; k-- {
			d += off[k] * stride
			stride *= r.Dims[k]
		}
		dist = append(dist, d)
	}

	word := uint64(uint32(r.Bits))<<1 | uint64(r.Op)<<40
	h := fnvMix(fnvOffset64, uint64(size))
	for lin := 0; lin < size; lin++ {
		h = fnvMix(h, word)
		for j, off := range r.Deps {
			if shiftInDomain(idx, off, -1, r.Dims) {
				h = fnvMix(h, uint64(uint32(lin-dist[j])))
			}
		}
		h = fnvMix(h, ^uint64(0))
		nextIndex(idx, r.Dims)
	}
	// idx has wrapped back to the first cell.
	for lin := 0; lin < size; lin++ {
		consumed := false
		for _, off := range r.Deps {
			if shiftInDomain(idx, off, 1, r.Dims) {
				consumed = true
				break
			}
		}
		if !consumed {
			h = fnvMix(h, uint64(uint32(lin)))
		}
		nextIndex(idx, r.Dims)
	}
	return h, nil
}

// shiftInDomain reports whether idx + sign*off lies inside dims.
func shiftInDomain(idx, off []int, sign int, dims []int) bool {
	for k, v := range idx {
		if p := v + sign*off[k]; p < 0 || p >= dims[k] {
			return false
		}
	}
	return true
}

// nextIndex advances idx to the next cell of dims in row-major order,
// wrapping to the first cell after the last.
func nextIndex(idx, dims []int) {
	for k := len(idx) - 1; k >= 0; k-- {
		idx[k]++
		if idx[k] < dims[k] {
			return
		}
		idx[k] = 0
	}
}

// ScheduleByIndex materializes a schedule for a recurrence graph by
// evaluating f on every cell's multi-index. The idx slice passed to f is
// reused between calls and must not be retained.
func ScheduleByIndex(dom *Domain, f func(idx []int) Assignment) Schedule {
	sched := make(Schedule, dom.Size())
	idx := make([]int, len(dom.dims))
	for lin := range sched {
		dom.Index(NodeID(lin), idx)
		sched[lin] = f(idx)
	}
	return sched
}

// AntiDiagonalScheduleChecked is the paper's mapping for a 2-D
// recurrence on a linear array of P processors:
//
//	Map H(i,j) at i % P  time floor(i/P)*N + j
//
// The paper's time expression is a per-processor local step counter; to
// make causality explicit in global cycles this schedule adds the
// wavefront skew (i mod P) — processor k runs k steps behind its left
// neighbour, which is what makes the anti-diagonals march — and scales
// the unit step to stride target cycles (use
// MinAntiDiagonalStrideChecked so one step covers the cell's op latency
// plus one hop of transit). origin anchors the processor row on the
// grid. It returns an error for a domain that is not 2-D, a
// non-positive processor count, or a non-positive stride.
func AntiDiagonalScheduleChecked(dom *Domain, p int, stride int64, origin geom.Point) (Schedule, error) {
	if len(dom.dims) != 2 {
		return nil, fmt.Errorf("fm: AntiDiagonalSchedule needs a 2-D domain, got rank %d", len(dom.dims))
	}
	if p <= 0 {
		return nil, fmt.Errorf("fm: invalid processor count %d", p)
	}
	if stride <= 0 {
		return nil, fmt.Errorf("fm: invalid stride %d", stride)
	}
	n := int64(dom.dims[1])
	return ScheduleByIndex(dom, func(idx []int) Assignment {
		i, j := int64(idx[0]), int64(idx[1])
		k := i % int64(p)
		return Assignment{
			Place: geom.Pt(origin.X+int(k), origin.Y),
			Time:  ((i/int64(p))*n + j + k) * stride,
		}
	}), nil
}

// MinAntiDiagonalStrideChecked returns the smallest legal unit step
// for AntiDiagonalScheduleChecked on tgt for an n-column domain over p
// processors. The binding constraints are the nearest-neighbour
// dependence — one step must cover the cell latency plus one hop of
// transit — and the wrap dependence from processor p-1 back to
// processor 0 when a row block completes, which must cover p-1 hops
// inside the n-p+1 steps the schedule allows it. It returns an error
// for a non-positive n or p.
func MinAntiDiagonalStrideChecked(tgt Target, op tech.OpClass, bits int, n, p int) (int64, error) {
	tgt = tgt.withDefaults()
	if n <= 0 || p <= 0 {
		return 0, fmt.Errorf("fm: invalid domain %d or processor count %d", n, p)
	}
	if p == 1 {
		// Everything is co-located: the step only has to cover the op.
		return tgt.OpCycles(op, bits), nil
	}
	s := tgt.OpCycles(op, bits) + tgt.TransitCycles(1)
	slack := int64(n - p + 1)
	if slack < 1 {
		slack = 1
	}
	need := tgt.OpCycles(op, bits) + tgt.TransitCycles(p-1)
	if w := (need + slack - 1) / slack; w > s {
		s = w
	}
	return s, nil
}
