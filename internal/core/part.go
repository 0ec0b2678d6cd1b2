package core

import (
	"context"

	"repro/internal/dp"
	"repro/internal/heap"
)

// partItem is one entry of the global priority queue: it represents the
// sub-space of solutions that agree with its parent solution before
// devPos, pick exactly `row` (structure position candIdx) at devPos, and
// are free afterwards. Its weight is the weight of the best solution in
// that sub-space (prefix ⊕ π(row) ⊕ re-optimised open subtrees), so the
// global queue pops sub-spaces in the order of their champions — the
// Lawler–Murty invariant.
type partItem struct {
	weight  float64
	parent  *partItem
	devPos  int32
	candIdx int32
	row     int32
	// rows is the materialised full assignment, filled when popped.
	rows []int32
}

// partIter implements ANYK-PART over a T-DP.
type partIter struct {
	*Lifecycle
	t  *dp.TDP
	pq *heap.Heap[*partItem]
	// structs[node][group] is the candidate structure, created lazily.
	structs  [][]candStruct
	mkStruct makeStructFn
	m        int
	// scratch buffers reused across Next calls.
	sucBuf   []int32
	prefixW  []float64
	openSum  []float64
	groupBuf []int32
}

// NewPart returns the ANYK-PART iterator with the given successor
// structure variant (Eager, Lazy, Quick, All or Take2).
func NewPart(ctx context.Context, t *dp.TDP, v Variant) (Iterator, error) {
	mk := structFactory(v, t.Agg)
	m := len(t.Nodes)
	it := &partIter{
		Lifecycle: NewLifecycle(ctx),
		t:         t,
		pq:        heap.New(func(a, b *partItem) bool { return t.Agg.Less(a.weight, b.weight) }),
		structs:   make([][]candStruct, m),
		mkStruct:  mk,
		m:         m,
		prefixW:   make([]float64, m+1),
		openSum:   make([]float64, m),
		groupBuf:  make([]int32, m),
	}
	for pos, n := range t.Nodes {
		it.structs[pos] = make([]candStruct, len(n.Groups))
	}
	if t.Empty() {
		return it, nil
	}
	st := it.structAt(0, 0)
	row, pi, ok := st.at(0)
	if !ok {
		return it, nil
	}
	it.pq.Push(&partItem{weight: pi, devPos: 0, candIdx: 0, row: row})
	return it, nil
}

func (it *partIter) structAt(pos int, group int32) candStruct {
	s := it.structs[pos][group]
	if s == nil {
		s = it.mkStruct(it.t.Nodes[pos], &it.t.Nodes[pos].Groups[group])
		it.structs[pos][group] = s
	}
	return s
}

// Next pops the best unseen solution, materialises it, and pushes its
// Lawler successors. Close (promoted from Lifecycle, safe to call
// concurrently) only stops the next call: the queue and successor
// structures live as long as the iterator is reachable.
func (it *partIter) Next() (Result, bool) {
	if !it.Proceed() {
		return Result{}, false
	}
	item, ok := it.pq.Pop()
	if !ok {
		it.Exhaust()
		return Result{}, false
	}
	t := it.t
	// Materialise: prefix from the parent chain, deviation row, then a
	// greedy descent using each group's structure-best (position 0).
	rows := make([]int32, it.m)
	if item.parent != nil {
		copy(rows[:item.devPos], item.parent.rows[:item.devPos])
	}
	rows[item.devPos] = item.row
	groups := it.groupBuf
	if item.devPos == 0 {
		groups[0] = 0
	}
	for pos := int(item.devPos) + 1; pos < it.m; pos++ {
		gi := t.GroupFor(pos, rows)
		groups[pos] = gi
		st := it.structAt(pos, gi)
		row, _, ok := st.at(0)
		if !ok {
			panic("core: empty candidate group after full reduction")
		}
		rows[pos] = row
	}
	// Record group ids for prefix positions too (needed by pushes).
	for pos := 1; pos <= int(item.devPos); pos++ {
		groups[pos] = t.GroupFor(pos, rows)
	}
	item.rows = rows

	// prefixW[j] = ⊕_{i<j} w(rows[i]).
	it.prefixW[0] = t.Agg.Identity()
	for pos := 0; pos < it.m; pos++ {
		it.prefixW[pos+1] = t.Agg.Combine(it.prefixW[pos], t.Nodes[pos].Rel.Weights[rows[pos]])
	}
	// openSum[j] = ⊕ over open subtree roots after deviating at j of
	// their group-best π: openSum[j] = openSum[parent(j)] ⊕ later
	// siblings' bests. No subtraction needed, so any monotone dioid works.
	for pos := 0; pos < it.m; pos++ {
		n := t.Nodes[pos]
		var base float64
		if n.Parent < 0 {
			base = t.Agg.Identity()
		} else {
			base = it.openSum[n.Parent]
			parent := t.Nodes[n.Parent]
			seen := false
			for ci, c := range parent.Children {
				if c == pos {
					seen = true
					continue
				}
				if seen {
					gi := parent.ChildGroup[ci][rows[n.Parent]]
					base = t.Agg.Combine(base, t.Nodes[c].Groups[gi].BestPi)
				}
			}
		}
		it.openSum[pos] = base
	}

	// Push Lawler successors: at devPos, the candidates following this
	// item's candIdx; at every later position, the candidates following
	// structure position 0.
	for j := int(item.devPos); j < it.m; j++ {
		st := it.structAt(j, groups[j])
		from := int32(0)
		if j == int(item.devPos) {
			from = item.candIdx
		}
		it.sucBuf = st.successors(from, it.sucBuf[:0])
		for _, sIdx := range it.sucBuf {
			row, pi, ok := st.at(sIdx)
			if !ok {
				continue
			}
			w := t.Agg.Combine(t.Agg.Combine(it.prefixW[j], pi), it.openSum[j])
			it.pq.Push(&partItem{
				weight:  w,
				parent:  item,
				devPos:  int32(j),
				candIdx: sIdx,
				row:     row,
			})
		}
	}
	return Result{Tuple: t.Emit(rows), Weight: item.weight}, true
}
