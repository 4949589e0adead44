package bounded

import (
	"math/rand"
	"slices"
	"testing"
)

// model is the specification Map must match: a slice of resident keys
// in insertion order, the oldest first.
type model struct {
	keys     []int
	vals     map[int]int
	capacity int
}

func (m *model) put(k, v int) (evicted bool) {
	if _, ok := m.vals[k]; !ok {
		if m.capacity > 0 && len(m.keys) == m.capacity {
			delete(m.vals, m.keys[0])
			m.keys = m.keys[1:]
			evicted = true
		}
		m.keys = append(m.keys, k)
	}
	m.vals[k] = v
	return evicted
}

// TestMapMatchesSliceModel drives random Put/Get sequences — re-puts of
// resident keys included — through Map and the slice model at several
// capacities, 0 (unbounded) among them, and requires the same eviction
// verdicts, lookups and lengths at every step.
func TestMapMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 3, 7, 16} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b := New[int, int](capacity)
			m := &model{vals: map[int]int{}, capacity: capacity}
			keySpace := 2*capacity + 3
			for step := 0; step < 400; step++ {
				k := rng.Intn(keySpace)
				if rng.Intn(3) == 0 {
					got, gotOK := b.Get(k)
					want, wantOK := m.vals[k]
					if got != want || gotOK != wantOK {
						t.Fatalf("cap %d seed %d step %d: Get(%d) = %d,%v; model %d,%v", capacity, seed, step, k, got, gotOK, want, wantOK)
					}
					continue
				}
				v := rng.Int()
				if got, want := b.Put(k, v), m.put(k, v); got != want {
					t.Fatalf("cap %d seed %d step %d: Put(%d) evicted=%v; model %v", capacity, seed, step, k, got, want)
				}
				if b.Len() != len(m.keys) {
					t.Fatalf("cap %d seed %d step %d: Len %d; model %d", capacity, seed, step, b.Len(), len(m.keys))
				}
			}
			for k := 0; k < keySpace; k++ {
				got, gotOK := b.Get(k)
				want, wantOK := m.vals[k]
				if got != want || gotOK != wantOK {
					t.Fatalf("cap %d seed %d: final Get(%d) = %d,%v; model %d,%v", capacity, seed, k, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestRePutKeepsAge: overwriting a resident key neither evicts nor
// refreshes it, and never lets the ring hold the key twice (two callers
// racing on one absent key both Put it).
func TestRePutKeepsAge(t *testing.T) {
	b := New[string, int](2)
	b.Put("a", 1)
	b.Put("a", 2) // the racing second insert
	b.Put("b", 3)
	if v, _ := b.Get("a"); v != 2 {
		t.Fatalf("re-put value %d, want 2", v)
	}
	if !b.Put("c", 4) {
		t.Fatal("third key into a 2-map must evict")
	}
	if _, ok := b.Get("a"); ok {
		t.Fatal(`"a" is the oldest insertion and must be evicted first`)
	}
	if !slices.Equal(b.ring, []string{"c", "b"}) || b.Len() != 2 {
		t.Fatalf("ring %v len %d, want [c b] and 2", b.ring, b.Len())
	}
}

// TestRingGrowsWithMap: a large capacity costs nothing up front — the
// ring is as long as the map, not as the bound — and an unbounded map
// keeps no ring at all.
func TestRingGrowsWithMap(t *testing.T) {
	b := New[int, int](1 << 20)
	for k := 0; k < 10; k++ {
		b.Put(k, k)
	}
	if len(b.ring) != 10 || cap(b.ring) > 64 {
		t.Fatalf("ring len %d cap %d after 10 puts into a 2^20 map", len(b.ring), cap(b.ring))
	}
	u := New[int, int](-1)
	for k := 0; k < 100; k++ {
		u.Put(k, k)
	}
	if u.Len() != 100 || u.ring != nil {
		t.Fatalf("unbounded map: len %d, ring %v", u.Len(), u.ring)
	}
}
