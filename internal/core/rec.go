package core

import (
	"context"

	"repro/internal/dp"
	"repro/internal/heap"
)

// recSol is the j-th best subtree solution of one (node, group) state:
// the node picks `row` and child subtree ci uses its ranks[ci]-th best
// solution, where ranks is the vector at index `ranks` of the node's
// rank arena. Solutions are expanded to full assignments only when a
// top-level result is emitted, so ranked suffixes are shared across
// every prefix that reaches the same state — the factorised
// representation that gives ANYK-REC its time-to-last advantage.
type recSol struct {
	row    int32
	ranks  int32
	weight float64
}

// recCand is a frontier candidate of one state's lattice, queued under
// its weight. frozen is the child index that produced it; only children
// ≥ frozen may advance, which enumerates each rank vector exactly once.
// Like recSol it holds no pointer, so a state's queue is two flat arrays
// the collector never scans.
type recCand struct {
	row    int32
	ranks  int32
	frozen int32
}

// recState enumerates the ranked subtree solutions of one (node, group).
type recState struct {
	pos      int
	produced []recSol
	pq       heap.Heap[recCand]
}

// recIter implements ANYK-REC over a T-DP.
type recIter struct {
	*Lifecycle
	t *dp.TDP
	// states[node][group], created lazily.
	states [][]*recState
	root   *recState
	k      int
	// ranks[node] holds the child-rank vectors of every solution and
	// candidate of the node's states, len(Children) int32 each. Its row 0
	// is all zeros, the vector of every seed candidate; a successor
	// writes a fresh row.
	ranks []arena
	// rows is the assignment expand writes for each result, and out the
	// tuple it is emitted into: one of each serves every Next.
	rows []int32
	out  rowBuf
}

// NewRec returns the ANYK-REC iterator.
func NewRec(ctx context.Context, t *dp.TDP) Iterator {
	m := len(t.Nodes)
	it := &recIter{Lifecycle: NewLifecycle(ctx), t: t, states: make([][]*recState, m), ranks: make([]arena, m), rows: make([]int32, m)}
	for pos, n := range t.Nodes {
		it.states[pos] = make([]*recState, n.Groups.Len())
		it.ranks[pos].m = len(n.Children)
	}
	if !t.Empty() {
		it.root = it.stateAt(0, 0)
	}
	return it
}

// stateAt returns (creating lazily) the state for a node's group. Its
// initial frontier holds one candidate per row, each paired with every
// child's best solution — whose combined weight is exactly π(row), so no
// recursive calls are needed to seed the frontier.
func (it *recIter) stateAt(pos int, group int32) *recState {
	if s := it.states[pos][group]; s != nil {
		return s
	}
	t := it.t
	n := t.Nodes[pos]
	g := n.Groups.Rows(group)
	if a := &it.ranks[pos]; a.m > 0 && a.n == 0 {
		a.add() // row 0: the seeds' all-zero vector
	}
	cands := make([]recCand, len(g))
	weights := make([]float64, len(g))
	for i, row := range g {
		cands[i], weights[i] = recCand{row: row}, n.Pi[row]
	}
	s := &recState{
		pos: pos,
		pq:  heap.NewFromSlice(t.Agg.Desc(), weights, cands),
	}
	it.states[pos][group] = s
	return s
}

// ensure materialises state solutions up to rank j, returning false when
// the state has fewer than j+1 solutions.
func (it *recIter) ensure(s *recState, j int) bool {
	t := it.t
	n := t.Nodes[s.pos]
	a := &it.ranks[s.pos]
	for len(s.produced) <= j {
		weight, cand, ok := s.pq.Pop()
		if !ok {
			return false
		}
		s.produced = append(s.produced, recSol{row: cand.row, ranks: cand.ranks, weight: weight})
		// Successors: advance one child rank, children ≥ frozen only.
		// An arena's chunks never move, so ranks stays valid while a.add
		// and the recursive ensure calls grow the arenas.
		var ranks []int32
		if len(n.Children) > 0 {
			ranks = a.row(cand.ranks)
		}
		for ci := int(cand.frozen); ci < len(n.Children); ci++ {
			// Weight: node weight ⊕ every child's chosen solution weight,
			// with child ci one rank further. Sibling ranks come from cand,
			// but their solutions may not be materialised yet when cand was
			// seeded directly from π, so ensure each (rank 0 is always
			// available after reduction).
			w := n.Rel.Weights[cand.row]
			feasible := true
			for cj := range n.Children {
				rank := ranks[cj]
				if cj == ci {
					rank++
				}
				ccs := it.stateAt(n.Children[cj], n.ChildGroup[cj][cand.row])
				if !it.ensure(ccs, int(rank)) {
					feasible = false
					break
				}
				w = t.Agg.Combine(w, ccs.produced[rank].weight)
			}
			if !feasible {
				continue
			}
			idx, next := a.add()
			copy(next, ranks)
			next[ci]++
			s.pq.Push(w, recCand{row: cand.row, ranks: idx, frozen: int32(ci)})
		}
	}
	return true
}

// expand recursively writes the full assignment of state solution solIdx
// into rows.
func (it *recIter) expand(s *recState, solIdx int, rows []int32) {
	sol := s.produced[solIdx]
	rows[s.pos] = sol.row
	n := it.t.Nodes[s.pos]
	if len(n.Children) == 0 {
		return
	}
	ranks := it.ranks[s.pos].row(sol.ranks)
	for ci, child := range n.Children {
		cs := it.stateAt(child, n.ChildGroup[ci][sol.row])
		it.expand(cs, int(ranks[ci]), rows)
	}
}

// Next returns the k-th best solution overall. Close (promoted from
// Lifecycle, safe to call concurrently) only stops the next call: the
// memoized states live as long as the iterator is reachable.
func (it *recIter) Next() (Result, bool) {
	if !it.Proceed() {
		return Result{}, false
	}
	if it.root == nil {
		it.Exhaust()
		return Result{}, false
	}
	if !it.ensure(it.root, it.k) {
		it.Exhaust()
		return Result{}, false
	}
	it.expand(it.root, it.k, it.rows)
	w := it.root.produced[it.k].weight
	it.k++
	return Result{Tuple: it.out.emit(it.t, it.rows), Weight: w}, true
}
