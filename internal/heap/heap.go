// Package heap provides the priority-queue machinery of the ranked
// enumeration: a binary min-heap whose entries carry a float64 key, and
// incremental ("lazy") sorters and a heapify over int32 ids keyed by a
// column. Every structure orders by its float64 keys under one direction
// bit, desc: a ranks before b when a < b, or when a > b with desc set —
// exactly what ranking.Aggregate.Less evaluates for an aggregate whose
// Desc is desc. The comparison is inlined rather than called through a
// closure, and sifts move a hole instead of swapping, so a comparison is
// the delay's constant and nothing more.
package heap

// less reports whether key a ranks strictly before key b.
func less(desc bool, a, b float64) bool {
	if desc {
		return a > b
	}
	return a < b
}

// Heap is a binary min-heap of values, each ordered by the float64 key
// it was pushed with. Keys and values sit in two parallel slices, so a
// pointer-free T keeps the queue pointer-free and a comparison reads
// only the key array. The zero value is an empty ascending heap; New and
// NewFromSlice return a Heap by value, to be used through a pointer and
// embedded in the structure that owns it.
type Heap[T any] struct {
	desc bool
	keys []float64
	vals []T
}

// New returns an empty heap; desc selects descending key order.
func New[T any](desc bool) Heap[T] {
	return Heap[T]{desc: desc}
}

// NewFromSlice heapifies the entries (keys[i], vals[i]) in O(n) and
// takes ownership of both slices, which must have equal length.
func NewFromSlice[T any](desc bool, keys []float64, vals []T) Heap[T] {
	if len(keys) != len(vals) {
		panic("heap: NewFromSlice with keys and values of different lengths")
	}
	h := Heap[T]{desc: desc, keys: keys, vals: vals}
	for i := len(keys)/2 - 1; i >= 0; i-- {
		h.siftDown(i, keys[i], vals[i])
	}
	return h
}

// Len reports the number of entries in the heap.
func (h *Heap[T]) Len() int { return len(h.keys) }

// Push adds v with key in O(log n).
func (h *Heap[T]) Push(key float64, v T) {
	h.keys = append(h.keys, key)
	h.vals = append(h.vals, v)
	// siftUp: move the hole at the end up past every parent key ranks
	// before, then fill it.
	keys, vals, desc := h.keys, h.vals, h.desc
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(desc, key, keys[parent]) {
			break
		}
		keys[i], vals[i] = keys[parent], vals[parent]
		i = parent
	}
	keys[i], vals[i] = key, v
}

// Peek returns the first entry without removing it. It reports false if
// the heap is empty.
func (h *Heap[T]) Peek() (float64, T, bool) {
	if len(h.keys) == 0 {
		var zero T
		return 0, zero, false
	}
	return h.keys[0], h.vals[0], true
}

// Pop removes and returns the first entry. It reports false if the heap
// is empty.
func (h *Heap[T]) Pop() (float64, T, bool) {
	var zero T
	if len(h.keys) == 0 {
		return 0, zero, false
	}
	key, v := h.keys[0], h.vals[0]
	last := len(h.keys) - 1
	lastKey, lastVal := h.keys[last], h.vals[last]
	h.vals[last] = zero // release a reference for the collector
	h.keys, h.vals = h.keys[:last], h.vals[:last]
	if last > 0 {
		h.siftDown(0, lastKey, lastVal)
	}
	return key, v, true
}

// siftDown places the entry (key, v) at the hole i: the hole moves down
// past every child that ranks before key, the better child of two first.
func (h *Heap[T]) siftDown(i int, key float64, v T) {
	keys, vals, desc := h.keys, h.vals, h.desc
	n := len(keys)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && less(desc, keys[right], keys[child]) {
			child = right
		}
		if !less(desc, keys[child], key) {
			break
		}
		keys[i], vals[i] = keys[child], vals[child]
		i = child
	}
	keys[i], vals[i] = key, v
}

// Heapify arranges ids in binary-heap order of keys[id] in O(n): the id
// at position i ranks no later than those at 2i+1 and 2i+2. The layout
// is the one NewFromSlice gives the same keys.
func Heapify(keys []float64, desc bool, ids []int32) {
	for i := len(ids)/2 - 1; i >= 0; i-- {
		siftIDs(keys, desc, ids, i)
	}
}

// siftIDs is Heap.siftDown over the id heap ids, keyed by keys.
func siftIDs(keys []float64, desc bool, ids []int32, i int) {
	id, n := ids[i], len(ids)
	key := keys[id]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		ck := keys[ids[child]]
		if right := child + 1; right < n {
			if rk := keys[ids[right]]; less(desc, rk, ck) {
				child, ck = right, rk
			}
		}
		if !less(desc, ck, key) {
			break
		}
		ids[i] = ids[child]
		i = child
	}
	ids[i] = id
}
