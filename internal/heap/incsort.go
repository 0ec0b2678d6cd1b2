package heap

import "slices"

// IncSort incrementally sorts a slice in place: Get(i) returns the i-th
// smallest element, materialising the sorted prefix lazily. Construction
// is O(n) (heapify); each new rank costs O(log n). This is the data
// structure behind the "Lazy" ANYK-PART variant: a candidate list only
// pays sorting cost for the ranks actually visited.
//
// The sorted prefix sits at the front of the slice and the heap of the
// rest is mirrored behind it — heap index j lives at data[len-1-j] — so
// the slot a pop vacates, the heap's last, is exactly the one the popped
// element belongs in, and no second slice is needed. Ranks come out in
// the order repeated Heap.Pop on the same input yields, ties included:
// both run the same comparisons in the same order.
type IncSort[T any] struct {
	less   func(a, b T) bool
	data   []T
	sorted int // length of the sorted prefix
}

// NewIncSort takes ownership of items and prepares incremental sorting.
func NewIncSort[T any](less func(a, b T) bool, items []T) *IncSort[T] {
	// Reversed, items[j] sits where heap index j lives, as in
	// NewFromSlice.
	slices.Reverse(items)
	s := &IncSort[T]{less: less, data: items}
	for i := len(items)/2 - 1; i >= 0; i-- {
		s.siftDown(i, len(items))
	}
	return s
}

// Total reports the total number of elements (sorted and unsorted).
func (s *IncSort[T]) Total() int { return len(s.data) }

// Get returns the element of rank i (0-based). It reports false if
// i >= Total(). Ranks already materialised are returned in O(1).
func (s *IncSort[T]) Get(i int) (T, bool) {
	if i >= len(s.data) {
		var zero T
		return zero, false
	}
	top := len(s.data) - 1
	for s.sorted <= i {
		// Heap.Pop: the root goes, the last element takes its place and
		// sifts down through the remaining size-1 heap. The last element
		// sat at data[sorted], which the root then fills.
		last := s.sorted
		min := s.data[top]
		s.data[top] = s.data[last]
		s.siftDown(0, top-last)
		s.data[last] = min
		s.sorted++
	}
	return s.data[i], true
}

// siftDown is Heap.siftDown over the mirrored heap of the given size.
func (s *IncSort[T]) siftDown(i, size int) {
	d, top := s.data, len(s.data)-1
	for {
		left := 2*i + 1
		if left >= size {
			return
		}
		smallest := left
		if right := left + 1; right < size && s.less(d[top-right], d[top-left]) {
			smallest = right
		}
		if !s.less(d[top-smallest], d[top-i]) {
			return
		}
		d[top-i], d[top-smallest] = d[top-smallest], d[top-i]
		i = smallest
	}
}

// IncQuick incrementally sorts a slice using lazy quicksort: the slice is
// partitioned on demand and only the partitions containing requested ranks
// are refined. Amortised O(log n) per rank in expectation, O(n) extra
// memory for the partition-boundary stack. This backs the "Quick"
// ANYK-PART variant.
type IncQuick[T any] struct {
	less func(a, b T) bool
	data []T
	// bounds[i] is true when data[i] is a "pivot in final position", i.e.
	// everything left of i is ≤ data[i] and everything right is ≥.
	// sortedUpTo is the length of the fully sorted prefix.
	bounds     []int // stack of right boundaries (exclusive) of unsorted runs, ascending from top
	sortedUpTo int
	rng        uint64
}

// NewIncQuick takes ownership of items and prepares incremental quicksort.
func NewIncQuick[T any](less func(a, b T) bool, items []T) *IncQuick[T] {
	return &IncQuick[T]{
		less:   less,
		data:   items,
		bounds: []int{len(items)},
		rng:    0x9e3779b97f4a7c15,
	}
}

// Total reports the total number of elements.
func (q *IncQuick[T]) Total() int { return len(q.data) }

func (q *IncQuick[T]) next() uint64 {
	// splitmix64 step for pivot selection.
	q.rng += 0x9e3779b97f4a7c15
	z := q.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Get returns the element of rank i (0-based), refining partitions as
// needed. It reports false if i >= Total().
func (q *IncQuick[T]) Get(i int) (T, bool) {
	if i >= len(q.data) {
		var zero T
		return zero, false
	}
	for q.sortedUpTo <= i {
		// The unsorted run starts at sortedUpTo and ends at the boundary
		// on top of the stack.
		hi := q.bounds[len(q.bounds)-1]
		lo := q.sortedUpTo
		n := hi - lo
		if n <= 8 {
			// Insertion-sort small runs and retire the boundary.
			for a := lo + 1; a < hi; a++ {
				for b := a; b > lo && q.less(q.data[b], q.data[b-1]); b-- {
					q.data[b], q.data[b-1] = q.data[b-1], q.data[b]
				}
			}
			q.sortedUpTo = hi
			q.bounds = q.bounds[:len(q.bounds)-1]
			continue
		}
		// Partition around a random pivot. The pivot lands in its final
		// position `store`; push boundaries so the left run [lo,store),
		// the pivot run [store,store+1), and the right run [store+1,hi)
		// are retired in order. Excluding the pivot from both sub-runs
		// guarantees progress even with many duplicate elements.
		p := lo + int(q.next()%uint64(n))
		q.data[p], q.data[hi-1] = q.data[hi-1], q.data[p]
		pivot := q.data[hi-1]
		store := lo
		for j := lo; j < hi-1; j++ {
			if q.less(q.data[j], pivot) {
				q.data[store], q.data[j] = q.data[j], q.data[store]
				store++
			}
		}
		q.data[store], q.data[hi-1] = q.data[hi-1], q.data[store]
		q.bounds = append(q.bounds, store+1, store)
	}
	return q.data[i], true
}
