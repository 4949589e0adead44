package hotalloctest

import "hotalloctest/dep"

// first is an allocation-free generic callee: reached through its
// instantiation, it must be walked and stay silent.
func first[T any](xs []T) T {
	return xs[0]
}

// Generic callees are reached through instantiations, which have no
// declaration of their own; the walk follows each to its generic
// origin, across the package boundary too, and reports what it finds
// there.
//
//lint:hotpath
func hotGeneric(s *dep.Stack[int], xs []int) int {
	s.Push(first(xs))
	return first(xs) + dep.Top(s)
}
