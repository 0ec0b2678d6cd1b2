package heap

import "slices"

// IncSort incrementally sorts int32 ids by keys[id] in place: Get(i)
// returns the id of rank i, materialising the sorted prefix lazily.
// Construction is O(n) (heapify); each new rank costs O(log n). This is
// the data structure behind the "Lazy" ANYK-PART variant: a candidate
// list only pays sorting cost for the ranks actually visited.
//
// The sorted prefix sits at the front of the id slice and the heap of
// the rest is mirrored behind it — heap index j lives at ids[len-1-j] —
// so the slot a pop vacates, the heap's last, is exactly the one the
// popped id belongs in, and no second slice is needed. Ranks come out in
// the order repeated Heap.Pop of the same keys yields, ties included:
// both run the same comparisons in the same order. After Get(i), the
// first i+1 ids of the slice NewIncSort was given are ranks 0..i.
type IncSort struct {
	keys   []float64
	ids    []int32
	desc   bool
	sorted int // length of the sorted prefix
}

// NewIncSort takes ownership of ids and prepares sorting them by
// keys[id], descending if desc. The value is used through a pointer and
// may be embedded in the structure that owns it.
func NewIncSort(keys []float64, desc bool, ids []int32) IncSort {
	// Reversed, ids[j] sits where heap index j lives, as in NewFromSlice.
	slices.Reverse(ids)
	s := IncSort{keys: keys, ids: ids, desc: desc}
	top := len(ids) - 1
	for i := len(ids)/2 - 1; i >= 0; i-- {
		s.siftDown(i, len(ids), ids[top-i])
	}
	return s
}

// Get returns the id of rank i (0-based). It reports false if i is not
// below the number of ids. Ranks already materialised are returned in
// O(1).
func (s *IncSort) Get(i int) (int32, bool) {
	if i >= len(s.ids) {
		return 0, false
	}
	ids, top := s.ids, len(s.ids)-1
	for s.sorted <= i {
		// Heap.Pop: the root goes, the last id sifts down from the root's
		// hole through the remaining size-1 heap. The last id sat at
		// ids[sorted], which the root then fills.
		last := s.sorted
		min := ids[top]
		s.siftDown(0, top-last, ids[last])
		ids[last] = min
		s.sorted++
	}
	return ids[i], true
}

// siftDown is Heap.siftDown of id from the hole i over the mirrored heap
// of the given size.
func (s *IncSort) siftDown(i, size int, id int32) {
	keys, ids, desc, top := s.keys, s.ids, s.desc, len(s.ids)-1
	key := keys[id]
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		ck := keys[ids[top-child]]
		if right := child + 1; right < size {
			if rk := keys[ids[top-right]]; less(desc, rk, ck) {
				child, ck = right, rk
			}
		}
		if !less(desc, ck, key) {
			break
		}
		ids[top-i] = ids[top-child]
		i = child
	}
	ids[top-i] = id
}

// IncQuick incrementally sorts int32 ids by keys[id] using lazy
// quicksort: the slice is partitioned on demand and only the partitions
// containing requested ranks are refined. Amortised O(log n) per rank in
// expectation, O(n) extra memory for the partition-boundary stack. This
// backs the "Quick" ANYK-PART variant.
type IncQuick struct {
	keys []float64
	ids  []int32
	desc bool
	// bounds is a stack of right boundaries (exclusive) of unsorted
	// runs, ascending from the top; sortedUpTo is the length of the
	// fully sorted prefix.
	bounds     []int
	sortedUpTo int
	rng        uint64
}

// NewIncQuick takes ownership of ids and prepares sorting them by
// keys[id], descending if desc. The value is used through a pointer and
// may be embedded in the structure that owns it.
func NewIncQuick(keys []float64, desc bool, ids []int32) IncQuick {
	return IncQuick{
		keys:   keys,
		ids:    ids,
		desc:   desc,
		bounds: []int{len(ids)},
		rng:    0x9e3779b97f4a7c15,
	}
}

func (q *IncQuick) next() uint64 {
	// splitmix64 step for pivot selection.
	q.rng += 0x9e3779b97f4a7c15
	z := q.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Get returns the id of rank i (0-based), refining partitions as needed.
// It reports false if i is not below the number of ids.
func (q *IncQuick) Get(i int) (int32, bool) {
	if i >= len(q.ids) {
		return 0, false
	}
	keys, ids, desc := q.keys, q.ids, q.desc
	for q.sortedUpTo <= i {
		// The unsorted run starts at sortedUpTo and ends at the boundary
		// on top of the stack.
		hi := q.bounds[len(q.bounds)-1]
		lo := q.sortedUpTo
		n := hi - lo
		if n <= 8 {
			// Insertion-sort small runs and retire the boundary.
			for a := lo + 1; a < hi; a++ {
				id := ids[a]
				key := keys[id]
				b := a
				for ; b > lo && less(desc, key, keys[ids[b-1]]); b-- {
					ids[b] = ids[b-1]
				}
				ids[b] = id
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
		ids[p], ids[hi-1] = ids[hi-1], ids[p]
		pivot := keys[ids[hi-1]]
		store := lo
		for j := lo; j < hi-1; j++ {
			if less(desc, keys[ids[j]], pivot) {
				ids[store], ids[j] = ids[j], ids[store]
				store++
			}
		}
		ids[store], ids[hi-1] = ids[hi-1], ids[store]
		q.bounds = append(q.bounds, store+1, store)
	}
	return ids[i], true
}
