package heap

import "slices"

// The closure-ordered heap and sorters the keyed ones replaced, kept
// verbatim as the reference FuzzKeyedHeap compares them against: the
// keyed structures must run the same comparisons in the same order, so
// every pop, rank and layout matches, ties included.

type refHeap[T any] struct {
	before func(a, b T) bool
	data   []T
}

func refNew[T any](before func(a, b T) bool) *refHeap[T] {
	return &refHeap[T]{before: before}
}

func refNewFromSlice[T any](before func(a, b T) bool, items []T) *refHeap[T] {
	h := &refHeap[T]{before: before, data: items}
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *refHeap[T]) Len() int { return len(h.data) }

func (h *refHeap[T]) Push(x T) {
	h.data = append(h.data, x)
	h.siftUp(len(h.data) - 1)
}

func (h *refHeap[T]) Pop() (T, bool) {
	if len(h.data) == 0 {
		var zero T
		return zero, false
	}
	min := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	var zero T
	h.data[last] = zero
	h.data = h.data[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return min, true
}

func (h *refHeap[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.data[i], h.data[parent]) {
			return
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

func (h *refHeap[T]) siftDown(i int) {
	n := len(h.data)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.before(h.data[right], h.data[left]) {
			smallest = right
		}
		if !h.before(h.data[smallest], h.data[i]) {
			return
		}
		h.data[i], h.data[smallest] = h.data[smallest], h.data[i]
		i = smallest
	}
}

type refIncSort[T any] struct {
	before func(a, b T) bool
	data   []T
	sorted int
}

func refNewIncSort[T any](before func(a, b T) bool, items []T) *refIncSort[T] {
	slices.Reverse(items)
	s := &refIncSort[T]{before: before, data: items}
	for i := len(items)/2 - 1; i >= 0; i-- {
		s.siftDown(i, len(items))
	}
	return s
}

func (s *refIncSort[T]) Get(i int) (T, bool) {
	if i >= len(s.data) {
		var zero T
		return zero, false
	}
	top := len(s.data) - 1
	for s.sorted <= i {
		last := s.sorted
		min := s.data[top]
		s.data[top] = s.data[last]
		s.siftDown(0, top-last)
		s.data[last] = min
		s.sorted++
	}
	return s.data[i], true
}

func (s *refIncSort[T]) siftDown(i, size int) {
	d, top := s.data, len(s.data)-1
	for {
		left := 2*i + 1
		if left >= size {
			return
		}
		smallest := left
		if right := left + 1; right < size && s.before(d[top-right], d[top-left]) {
			smallest = right
		}
		if !s.before(d[top-smallest], d[top-i]) {
			return
		}
		d[top-i], d[top-smallest] = d[top-smallest], d[top-i]
		i = smallest
	}
}

type refIncQuick[T any] struct {
	before     func(a, b T) bool
	data       []T
	bounds     []int
	sortedUpTo int
	rng        uint64
}

func refNewIncQuick[T any](before func(a, b T) bool, items []T) *refIncQuick[T] {
	return &refIncQuick[T]{
		before: before,
		data:   items,
		bounds: []int{len(items)},
		rng:    0x9e3779b97f4a7c15,
	}
}

func (q *refIncQuick[T]) next() uint64 {
	q.rng += 0x9e3779b97f4a7c15
	z := q.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (q *refIncQuick[T]) Get(i int) (T, bool) {
	if i >= len(q.data) {
		var zero T
		return zero, false
	}
	for q.sortedUpTo <= i {
		hi := q.bounds[len(q.bounds)-1]
		lo := q.sortedUpTo
		n := hi - lo
		if n <= 8 {
			for a := lo + 1; a < hi; a++ {
				for b := a; b > lo && q.before(q.data[b], q.data[b-1]); b-- {
					q.data[b], q.data[b-1] = q.data[b-1], q.data[b]
				}
			}
			q.sortedUpTo = hi
			q.bounds = q.bounds[:len(q.bounds)-1]
			continue
		}
		p := lo + int(q.next()%uint64(n))
		q.data[p], q.data[hi-1] = q.data[hi-1], q.data[p]
		pivot := q.data[hi-1]
		store := lo
		for j := lo; j < hi-1; j++ {
			if q.before(q.data[j], pivot) {
				q.data[store], q.data[j] = q.data[j], q.data[store]
				store++
			}
		}
		q.data[store], q.data[hi-1] = q.data[hi-1], q.data[store]
		q.bounds = append(q.bounds, store+1, store)
	}
	return q.data[i], true
}
