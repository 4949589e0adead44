package fm

// Structural fingerprints for graphs and schedules. The mapping searcher
// memoizes Evaluate results across worker goroutines keyed by
// (function, mapping) — these hashes are that key, exported from fm so
// the cache never has to retain (or walk twice) the objects themselves.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvMix folds the eight bytes of v into h, FNV-1a style.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Fingerprint returns a 64-bit structural hash of the graph: node count,
// per-node operation, width and input flag, dependency lists, and the
// declared outputs. The name and debug labels are excluded, so two graphs
// computing the same function the same way hash equal. O(nodes + edges).
func (g *Graph) Fingerprint() uint64 {
	h := fnvOffset64
	h = fnvMix(h, uint64(g.NumNodes()))
	for n := 0; n < g.NumNodes(); n++ {
		w := uint64(g.bits[n]) << 1
		if g.input[n] {
			w |= 1
		}
		h = fnvMix(h, w|uint64(g.op[n])<<40)
		for _, d := range g.Deps(NodeID(n)) {
			h = fnvMix(h, uint64(uint32(d)))
		}
		h = fnvMix(h, ^uint64(0)) // terminate the dep list
	}
	for _, o := range g.outputs {
		h = fnvMix(h, uint64(uint32(o)))
	}
	return h
}

// Fingerprint returns a 64-bit hash of the schedule: every assignment's
// place and start time, in node order. Two schedules of the same graph
// with equal fingerprints are (up to hash collision, ~2^-64 per pair)
// the same mapping and therefore have the same cost.
func (s Schedule) Fingerprint() uint64 {
	h := fnvOffset64
	h = fnvMix(h, uint64(len(s)))
	for _, a := range s {
		h = fnvMix(h, uint64(uint32(a.Place.X))|uint64(uint32(a.Place.Y))<<32)
		h = fnvMix(h, uint64(a.Time))
	}
	return h
}
