package core

import (
	"context"
	"math/bits"

	"repro/internal/dp"
	"repro/internal/heap"
)

// partEntry is one entry of the global priority queue: it represents the
// sub-space of solutions that agree with its parent solution before
// devPos, pick exactly `row` (structure position candIdx) at devPos, and
// are free afterwards. Its key in the queue is the weight of the best
// solution in that sub-space (prefix ⊕ π(row) ⊕ re-optimised open
// subtrees), so the global queue pops sub-spaces in the order of their
// champions — the Lawler–Murty invariant. parent is the arena index of
// the parent's assignment (-1 for the root entry). The entry holds no
// pointer, so the queue is one flat array of 8 B keys and one of these
// 16 B entries, neither of which the collector scans.
type partEntry struct {
	parent  int32
	devPos  int32
	candIdx int32
	row     int32
}

// partIter implements ANYK-PART over a T-DP.
type partIter struct {
	*Lifecycle
	t  *dp.TDP
	pq heap.Heap[partEntry]
	// arena holds every popped assignment; an entry copies its prefix
	// from its parent's.
	arena arena
	// cands is the T-DP's table of v's candidate structures, shared with
	// every other iterator of v over t and held for this one's life.
	cands *dp.Cands
	v     Variant
	shape succShape
	m     int
	// scratch buffers reused across Next calls.
	sucBuf   []int32
	prefixW  []float64
	openSum  []float64
	groupBuf []int32
	out      rowBuf
}

// NewPart returns the ANYK-PART iterator with the given successor
// structure variant (Eager, Lazy, Quick, All or Take2).
func NewPart(ctx context.Context, t *dp.TDP, v Variant) (Iterator, error) {
	m := len(t.Nodes)
	it := &partIter{
		Lifecycle: NewLifecycle(ctx),
		t:         t,
		pq:        heap.New[partEntry](t.Agg.Desc()),
		arena:     arena{m: m},
		cands:     t.Cands(string(v)),
		v:         v,
		shape:     shapeOf(v),
		m:         m,
		prefixW:   make([]float64, m+1),
		openSum:   make([]float64, m),
		groupBuf:  make([]int32, m),
	}
	if t.Empty() {
		return it, nil
	}
	row, ok := it.structAt(0, 0).Get(0)
	if !ok {
		return it, nil
	}
	it.pq.Push(t.Nodes[0].Pi[row], partEntry{parent: -1, row: row})
	return it, nil
}

// structAt returns the candidate structure of group g of node pos,
// building and publishing it if no iterator has yet.
func (it *partIter) structAt(pos int, g int32) *heap.Ranked {
	slot := it.cands.Slot(pos, g)
	if st := slot.Load(); st != nil {
		return st
	}
	st := buildStruct(it.v, it.t.Agg, it.t.Nodes[pos], g)
	if !slot.CompareAndSwap(nil, st) {
		st = slot.Load()
	}
	return st
}

// Next pops the best unseen solution, materialises it, and pushes its
// Lawler successors. Close (promoted from Lifecycle, safe to call
// concurrently) only stops the next call: the queue, the assignments and
// the successor structures live as long as the iterator is reachable.
func (it *partIter) Next() (Result, bool) {
	if !it.Proceed() {
		return Result{}, false
	}
	weight, e, ok := it.pq.Pop()
	if !ok {
		it.Exhaust()
		return Result{}, false
	}
	t := it.t
	// Materialise: prefix from the parent's assignment, deviation row,
	// then a greedy descent using each group's structure-best (position
	// 0).
	idx, rows := it.arena.add()
	if e.parent >= 0 {
		copy(rows[:e.devPos], it.arena.row(e.parent)[:e.devPos])
	}
	rows[e.devPos] = e.row
	groups := it.groupBuf
	if e.devPos == 0 {
		groups[0] = 0
	}
	for pos := int(e.devPos) + 1; pos < it.m; pos++ {
		gi := t.GroupFor(pos, rows)
		groups[pos] = gi
		row, ok := it.structAt(pos, gi).Get(0)
		if !ok {
			panic("core: empty candidate group after the bottom-up sweep")
		}
		rows[pos] = row
	}
	// Record group ids for prefix positions too (needed by pushes).
	for pos := 1; pos <= int(e.devPos); pos++ {
		groups[pos] = t.GroupFor(pos, rows)
	}

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
					base = t.Agg.Combine(base, t.Nodes[c].BestPi[gi])
				}
			}
		}
		it.openSum[pos] = base
	}

	// Push Lawler successors: at devPos, the candidates following this
	// entry's candIdx; at every later position, the candidates following
	// structure position 0.
	for j := int(e.devPos); j < it.m; j++ {
		st, pi := it.structAt(j, groups[j]), t.Nodes[j].Pi
		from := int32(0)
		if j == int(e.devPos) {
			from = e.candIdx
		}
		it.sucBuf = successors(it.shape, from, int32(st.Total()), it.sucBuf[:0])
		for _, sIdx := range it.sucBuf {
			row, _ := st.Get(int(sIdx))
			w := t.Agg.Combine(t.Agg.Combine(it.prefixW[j], pi[row]), it.openSum[j])
			it.pq.Push(w, partEntry{
				parent:  idx,
				devPos:  int32(j),
				candIdx: sIdx,
				row:     row,
			})
		}
	}
	return Result{Tuple: it.out.emit(t, rows), Weight: weight}, true
}

// Arena chunks double from arenaFirst rows to arenaFirst<<arenaShifts
// rows and stay at that size after.
const (
	arenaFirst  = 16
	arenaShifts = 6
)

// arena stores the popped assignments, m int32 per row, in chunks that
// are never reallocated: a row keeps its place for the iterator's life,
// and a small enumeration allocates small chunks.
type arena struct {
	m      int
	n      int32
	chunks [][]int32
}

// locate maps a row index to its chunk and the row's place in it.
func locate(i int) (chunk, off int) {
	const capped = arenaFirst << arenaShifts
	const doubling = capped - arenaFirst // rows in the doubling chunks
	if i < doubling {
		chunk = bits.Len(uint(i/arenaFirst+1)) - 1
		return chunk, i - arenaFirst*(1<<chunk-1)
	}
	i -= doubling
	return arenaShifts + i/capped, i % capped
}

// add appends a row and returns its index and its m slots.
func (a *arena) add() (int32, []int32) {
	i := a.n
	c, off := locate(int(i))
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]int32, arenaFirst<<min(c, arenaShifts)*a.m))
	}
	a.n++
	return i, a.chunks[c][off*a.m : (off+1)*a.m : (off+1)*a.m]
}

// row returns the slots of row i.
func (a *arena) row(i int32) []int32 {
	c, off := locate(int(i))
	return a.chunks[c][off*a.m : (off+1)*a.m]
}
