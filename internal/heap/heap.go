// Package heap provides generic priority-queue machinery used across the
// library: a comparator-based binary min-heap and incremental ("lazy")
// sorters that expose a sorted prefix of a slice on demand. The standard
// library's container/heap requires an interface implementation per
// element type and offers no incremental sort, so the ranked-enumeration
// algorithms in this module build on the generic implementations here
// instead.
package heap

// Heap is a binary min-heap ordered by a user-supplied less function.
// The zero value is not usable; construct with New or NewFromSlice.
type Heap[T any] struct {
	less func(a, b T) bool
	data []T
}

// New returns an empty heap ordered by less.
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// NewFromSlice heapifies items in O(len(items)) and takes ownership of the
// slice.
func NewFromSlice[T any](less func(a, b T) bool, items []T) *Heap[T] {
	h := &Heap[T]{less: less, data: items}
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

// Len reports the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.data) }

// Push adds x to the heap in O(log n).
func (h *Heap[T]) Push(x T) {
	h.data = append(h.data, x)
	h.siftUp(len(h.data) - 1)
}

// Peek returns the minimum element without removing it. It reports false
// if the heap is empty.
func (h *Heap[T]) Peek() (T, bool) {
	if len(h.data) == 0 {
		var zero T
		return zero, false
	}
	return h.data[0], true
}

// Pop removes and returns the minimum element. It reports false if the
// heap is empty.
func (h *Heap[T]) Pop() (T, bool) {
	if len(h.data) == 0 {
		var zero T
		return zero, false
	}
	min := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	var zero T
	h.data[last] = zero // release reference for GC
	h.data = h.data[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return min, true
}

// Items returns the underlying slice in heap order (not sorted order).
// Mutating elements may violate the heap invariant.
func (h *Heap[T]) Items() []T { return h.data }

func (h *Heap[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.data[i], h.data[parent]) {
			return
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

func (h *Heap[T]) siftDown(i int) {
	n := len(h.data)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.data[right], h.data[left]) {
			smallest = right
		}
		if !h.less(h.data[smallest], h.data[i]) {
			return
		}
		h.data[i], h.data[smallest] = h.data[smallest], h.data[i]
		i = smallest
	}
}
