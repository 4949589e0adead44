// Package dep is reached from the hotalloctest roots across the
// package boundary; the want comment here proves interprocedural
// reporting and cross-file want matching.
package dep

func Sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	if t < 0 {
		t = pad(t)
	}
	return t
}

func pad(v int) int {
	buf := make([]int, 8) // want "hotpath hot: make allocates"
	return v + len(buf)
}

// Stack is a generic container whose Push may grow its backing array.
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(x T) {
	s.items = append(s.items, x) // want "hotpath hotGeneric: append may grow its backing array"
}

// Top is an allocation-free generic function.
func Top[T any](s *Stack[T]) T {
	return s.items[len(s.items)-1]
}
