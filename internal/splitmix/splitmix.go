// Package splitmix holds the tree's one hash mixer: the splitmix64
// finalizer. The ring's rendezvous scores, the flight recorder's trace
// and span IDs, and both fault injectors' schedules all derive from it,
// so "same seed, same output" rests on a single function.
package splitmix

// Mix64 is the splitmix64 finalizer: a cheap bijective avalanche over
// uint64 whose output passes uniformity tests. Mix64(k*0x9e3779b97f4a7c15)
// for k = 1, 2, ... is the splitmix64 stream seeded with 0.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
