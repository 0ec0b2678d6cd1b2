package core

import (
	"context"

	"repro/internal/dp"
	"repro/internal/heap"
)

// NewNaiveLawler returns a correct but deliberately *polynomial-delay*
// ranked enumerator: the Lawler–Murty procedure implemented the way
// pre-any-k systems did (Kimelfeld–Sagiv style, [61] in the tutorial) —
// every partition's champion is found by recomputing the bottom-up
// dynamic program from scratch over the whole reduced database, instead
// of reusing suffix-optimal weights through incremental successor
// structures. Each emitted result therefore costs O(|D|·|Q|) instead of
// O(log) — exactly the gap §4 of the tutorial highlights ("a delay that
// is polynomial in the size of the input … reduced to O(log k)").
//
// It exists for the E13 ablation; use NewPart for real workloads.
func NewNaiveLawler(ctx context.Context, t *dp.TDP) Iterator {
	it := &naiveIter{
		Lifecycle: NewLifecycle(ctx),
		t:         t,
		pq:        heap.New[*naiveItem](t.Agg.Desc()),
	}
	if t.Empty() {
		return it
	}
	if item, ok := it.champion(nil, 0, nil); ok {
		it.pq.Push(item.weight, item)
	}
	return it
}

// naiveItem is one Lawler subspace together with its champion solution:
// rows agree with the champion everywhere; solutions of the subspace fix
// positions < devPos, exclude excl at devPos, and are free after it.
type naiveItem struct {
	weight float64
	rows   []int32
	devPos int
	excl   []int32
}

type naiveIter struct {
	*Lifecycle
	t   *dp.TDP
	pq  heap.Heap[*naiveItem]
	out rowBuf
}

// champion finds the best solution with rows[0..devPos) fixed to prefix
// and rows[devPos] not in excl, by recomputing π bottom-up from scratch
// (the deliberate inefficiency) and then descending greedily.
func (it *naiveIter) champion(prefix []int32, devPos int, excl []int32) (*naiveItem, bool) {
	t := it.t
	m := len(t.Nodes)

	// Fresh bottom-up pass: π and per-group best, recomputed in full.
	pi := make([][]float64, m)
	groupBestPi := make([][]float64, m)
	groupBestRow := make([][]int32, m)
	for pos := m - 1; pos >= 0; pos-- {
		n := t.Nodes[pos]
		pi[pos] = make([]float64, n.Rel.Len())
		for row := range n.Rel.Tuples {
			p := n.Rel.Weights[row]
			for ci, c := range n.Children {
				gi := n.ChildGroup[ci][row]
				p = t.Agg.Combine(p, groupBestPi[c][gi])
			}
			pi[pos][row] = p
		}
		groupBestPi[pos] = make([]float64, n.Groups.Len())
		groupBestRow[pos] = make([]int32, n.Groups.Len())
		for gi := range groupBestPi[pos] {
			g := n.Groups.Rows(int32(gi))
			if len(g) == 0 {
				continue
			}
			best := g[0]
			for _, r := range g[1:] {
				if t.Agg.Less(pi[pos][r], pi[pos][best]) {
					best = r
				}
			}
			groupBestPi[pos][gi] = pi[pos][best]
			groupBestRow[pos][gi] = best
		}
	}

	rows := make([]int32, m)
	copy(rows, prefix[:devPos])

	// Best allowed candidate at the deviation position.
	n := t.Nodes[devPos]
	gi := t.GroupFor(devPos, rows)
	var bestRow int32 = -1
	for _, r := range n.Groups.Rows(gi) {
		if contains(excl, r) {
			continue
		}
		if bestRow < 0 || t.Agg.Less(pi[devPos][r], pi[devPos][bestRow]) {
			bestRow = r
		}
	}
	if bestRow < 0 {
		return nil, false
	}
	rows[devPos] = bestRow

	// Greedy completion with the freshly computed per-group bests.
	for pos := devPos + 1; pos < m; pos++ {
		g := t.GroupFor(pos, rows)
		rows[pos] = groupBestRow[pos][g]
	}
	return &naiveItem{
		weight: t.SolutionWeight(rows),
		rows:   rows,
		devPos: devPos,
		excl:   excl,
	}, true
}

func contains(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Next pops the best champion and partitions its subspace, running one
// full DP recomputation per new subspace.
func (it *naiveIter) Next() (Result, bool) {
	if !it.Proceed() {
		return Result{}, false
	}
	_, item, ok := it.pq.Pop()
	if !ok {
		it.Exhaust()
		return Result{}, false
	}
	m := len(it.t.Nodes)
	// Sibling subspace at the deviation position: exclude this champion's
	// choice as well.
	sibExcl := append(append([]int32(nil), item.excl...), item.rows[item.devPos])
	if sib, ok := it.champion(item.rows, item.devPos, sibExcl); ok {
		it.pq.Push(sib.weight, sib)
	}
	// Child subspaces at every later position.
	for j := item.devPos + 1; j < m; j++ {
		if child, ok := it.champion(item.rows, j, []int32{item.rows[j]}); ok {
			it.pq.Push(child.weight, child)
		}
	}
	return Result{Tuple: it.out.emit(it.t, item.rows), Weight: item.weight}, true
}
