package cluster

import "repro/internal/splitmix"

// The shard ring: rendezvous (highest-random-weight) hashing over N
// shard indices. Rendezvous hashing was chosen over a token ring of
// virtual nodes because both required properties fall out of the
// construction instead of a tuning knob:
//
//   - balance: each key's owner is the argmax of N independent uniform
//     scores, so key shares concentrate around 1/N with no virtual-node
//     count to pick;
//   - minimal movement: adding shard N+1 only reassigns the keys whose
//     new score beats their old maximum (≈ 1/(N+1) of them), and
//     removing a shard only reassigns the keys it owned — every other
//     key's argmax is untouched.
//
// The replica set of a key is the top-R shards by score, so failover
// targets are as stable as the primary: a shard going down promotes its
// keys' second-ranked shards, nothing else changes.
//
// A Ring is immutable after construction — scores are pure functions of
// (key, shard index) — so it is shared across request goroutines with no
// lock; liveness lives in healthState, never here.
type Ring struct {
	n      int
	tokens []uint64
}

// NewRing builds the ring over n shards, indexed 0..n-1.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	r := &Ring{n: n, tokens: make([]uint64, n)}
	for i := range r.tokens {
		// Per-shard tokens from a splitmix64 stream: well-spread inputs
		// for the score mix below regardless of how small the indices are.
		r.tokens[i] = splitmix.Mix64(uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	}
	return r
}

// N returns the shard count.
func (r *Ring) N() int { return r.n }

// score is shard i's rendezvous weight for key.
func (r *Ring) score(key uint64, i int) uint64 {
	return splitmix.Mix64(key ^ r.tokens[i])
}

// Owners returns the replica set of key: the top-`replicas` shards by
// descending score, ties broken by lowest index. Owners(key, 1)[0] is
// the primary. replicas is clamped to [1, N]. The result is freshly
// allocated and sorted by rank (owner first), so owners[1:] is the
// failover order.
func (r *Ring) Owners(key uint64, replicas int) []int {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > r.n {
		replicas = r.n
	}
	out := make([]int, 0, replicas)
	// Selection by repeated max: N and R are both small (single-digit
	// shard counts), so O(N*R) beats sorting a scratch slice.
	for len(out) < replicas {
		best, found := -1, false
		for i := 0; i < r.n; i++ {
			if contains(out, i) {
				continue
			}
			if !found || r.score(key, i) > r.score(key, best) {
				best, found = i, true
			}
		}
		out = append(out, best)
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
