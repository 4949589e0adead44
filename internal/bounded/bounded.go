// Package bounded is the tree's one capacity-bounded map. The eval
// cache's shards and serve's graph and search registries all remember
// through it, so which keys a memo holds is a pure function of its
// sequence of puts — never of Go's map iteration order.
package bounded

// Map is a map of at most capacity keys that evicts its oldest
// insertion. Putting a new key into a full map evicts the key inserted
// longest ago; putting a resident key overwrites its value in place and
// keeps its age. Get never reorders, so a hit costs one map probe and no
// write. A Map is not safe for concurrent use; callers hold their own
// lock.
type Map[K comparable, V any] struct {
	m map[K]V
	// ring holds every resident key once, in insertion order starting at
	// head. It grows with the map up to capacity and is then reused in
	// place: the slot of the key it evicts takes the new key.
	ring     []K
	head     int
	capacity int
}

// New returns an empty map of at most capacity keys; capacity <= 0
// means unbounded.
func New[K comparable, V any](capacity int) *Map[K, V] {
	return &Map[K, V]{m: make(map[K]V), capacity: max(capacity, 0)}
}

// Get returns the value stored under k.
func (b *Map[K, V]) Get(k K) (V, bool) {
	v, ok := b.m[k]
	return v, ok
}

// Put stores v under k and reports whether the oldest key was evicted
// to make room. A resident k keeps its age, so the ring never holds a
// key twice even when two callers race to insert one absent key.
func (b *Map[K, V]) Put(k K, v V) (evicted bool) {
	if _, ok := b.m[k]; ok || b.capacity == 0 {
		b.m[k] = v
		return false
	}
	if len(b.ring) < b.capacity {
		b.ring = append(b.ring, k)
	} else {
		delete(b.m, b.ring[b.head])
		b.ring[b.head] = k
		b.head = (b.head + 1) % b.capacity
		evicted = true
	}
	b.m[k] = v
	return evicted
}

// Len returns the number of resident keys.
func (b *Map[K, V]) Len() int { return len(b.m) }
