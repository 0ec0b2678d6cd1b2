package core

import (
	"context"

	"repro/internal/dp"
	"repro/internal/heap"
)

// recSol is the j-th best subtree solution of one (node, group) state:
// the node picks `row` and each child subtree uses its childRanks[ci]-th
// best solution. Solutions are expanded to full assignments only when a
// top-level result is emitted, so ranked suffixes are shared across
// every prefix that reaches the same state — the factorised
// representation that gives ANYK-REC its time-to-last advantage.
type recSol struct {
	row        int32
	childRanks []int32
	weight     float64
}

// recCand is a frontier candidate of one state's lattice. frozen is the
// child index that produced it; only children ≥ frozen may advance,
// which enumerates each rank vector exactly once.
type recCand struct {
	row        int32
	childRanks []int32
	frozen     int32
	weight     float64
}

// recState enumerates the ranked subtree solutions of one (node, group).
type recState struct {
	pos      int
	produced []recSol
	pq       *heap.Heap[recCand]
}

// recIter implements ANYK-REC over a T-DP.
type recIter struct {
	*Lifecycle
	t *dp.TDP
	// states[node][group], created lazily.
	states [][]*recState
	root   *recState
	k      int
	// rows is the assignment expand writes for each result; Emit copies
	// the values out, so one buffer serves every Next.
	rows []int32
}

// NewRec returns the ANYK-REC iterator.
func NewRec(ctx context.Context, t *dp.TDP) Iterator {
	it := &recIter{Lifecycle: NewLifecycle(ctx), t: t, states: make([][]*recState, len(t.Nodes)), rows: make([]int32, len(t.Nodes))}
	for pos, n := range t.Nodes {
		it.states[pos] = make([]*recState, len(n.Groups))
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
	g := &n.Groups[group]
	cands := make([]recCand, len(g.Rows))
	nc := len(n.Children)
	for i, row := range g.Rows {
		var ranks []int32
		if nc > 0 {
			ranks = make([]int32, nc)
		}
		cands[i] = recCand{row: row, childRanks: ranks, weight: n.Pi[row]}
	}
	s := &recState{
		pos: pos,
		pq:  heap.NewFromSlice(func(a, b recCand) bool { return t.Agg.Less(a.weight, b.weight) }, cands),
	}
	it.states[pos][group] = s
	return s
}

// ensure materialises state solutions up to rank j, returning false when
// the state has fewer than j+1 solutions.
func (it *recIter) ensure(s *recState, j int) bool {
	t := it.t
	n := t.Nodes[s.pos]
	for len(s.produced) <= j {
		cand, ok := s.pq.Pop()
		if !ok {
			return false
		}
		s.produced = append(s.produced, recSol{row: cand.row, childRanks: cand.childRanks, weight: cand.weight})
		// Successors: advance one child rank, children ≥ frozen only.
		for ci := int(cand.frozen); ci < len(n.Children); ci++ {
			child := n.Children[ci]
			cg := n.ChildGroup[ci][cand.row]
			cs := it.stateAt(child, cg)
			nextRank := int(cand.childRanks[ci]) + 1
			if !it.ensure(cs, nextRank) {
				continue
			}
			ranks := make([]int32, len(cand.childRanks))
			copy(ranks, cand.childRanks)
			ranks[ci] = int32(nextRank)
			// Weight: node weight ⊕ every child's chosen solution weight.
			// Sibling ranks come from cand, but their solutions may not be
			// materialised yet when cand was seeded directly from π, so
			// ensure each (rank 0 is always available after reduction).
			w := n.Rel.Weights[cand.row]
			feasible := true
			for cj := range n.Children {
				ccs := it.stateAt(n.Children[cj], n.ChildGroup[cj][cand.row])
				if !it.ensure(ccs, int(ranks[cj])) {
					feasible = false
					break
				}
				w = t.Agg.Combine(w, ccs.produced[ranks[cj]].weight)
			}
			if !feasible {
				continue
			}
			s.pq.Push(recCand{row: cand.row, childRanks: ranks, frozen: int32(ci), weight: w})
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
	for ci, child := range n.Children {
		cs := it.stateAt(child, n.ChildGroup[ci][sol.row])
		it.expand(cs, int(sol.childRanks[ci]), rows)
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
	return Result{Tuple: it.t.Emit(it.rows), Weight: w}, true
}
