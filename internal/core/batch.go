package core

import (
	"context"
	"sort"

	"repro/internal/dp"
)

// batchIter is the non-any-k baseline of the tutorial's comparison:
// materialise the entire join output (an odometer over the T-DP's
// candidate groups: constant delay, unordered), sort it by weight, then
// iterate. Time-to-first is Θ(r log r); time-to-last
// is asymptotically optimal but pays the full sort even for k = 1.
type batchIter struct {
	*Lifecycle
	t       *dp.TDP
	rows    []int32 // all solutions, flattened (m per solution)
	weights []float64
	order   []int32
	m       int
	k       int
	out     rowBuf
}

// NewBatch materialises and sorts the full result set eagerly (at
// construction), so the first Next call already reflects batch cost.
// Cancellation is checked periodically during materialisation: if ctx is
// done, construction stops and the returned iterator reports the
// context's error from Err.
func NewBatch(ctx context.Context, t *dp.TDP) Iterator {
	it := &batchIter{Lifecycle: NewLifecycle(ctx), t: t, m: len(t.Nodes)}
	if t.Empty() {
		return it
	}
	// Odometer enumeration over candidate groups (constant delay).
	m := it.m
	rows := make([]int32, m)
	cand := make([][]int32, m)
	pos := make([]int, m)
	fill := func(from int) bool {
		for p := from; p < m; p++ {
			n := t.Nodes[p]
			gi := t.GroupFor(p, rows)
			cand[p] = n.Groups.Rows(gi)
			if len(cand[p]) == 0 {
				return false
			}
			pos[p] = 0
			rows[p] = cand[p][0]
		}
		return true
	}
	if fill(0) {
		for {
			if len(it.weights)%4096 == 0 && !it.Proceed() {
				it.rows, it.weights = nil, nil
				return it
			}
			it.rows = append(it.rows, rows...)
			it.weights = append(it.weights, t.SolutionWeight(rows))
			// Advance odometer.
			p := m - 1
			for ; p >= 0; p-- {
				if pos[p]+1 < len(cand[p]) {
					pos[p]++
					rows[p] = cand[p][pos[p]]
					if !fill(p + 1) {
						panic("core: refill failed after the bottom-up sweep")
					}
					break
				}
			}
			if p < 0 {
				break
			}
		}
	}
	it.order = make([]int32, len(it.weights))
	for i := range it.order {
		it.order[i] = int32(i)
	}
	sort.SliceStable(it.order, func(a, b int) bool {
		return t.Agg.Less(it.weights[it.order[a]], it.weights[it.order[b]])
	})
	return it
}

// Next yields the next solution in sorted order. Close (promoted from
// Lifecycle, safe to call concurrently) only stops the next call: the
// materialised output lives as long as the iterator is reachable.
func (it *batchIter) Next() (Result, bool) {
	if !it.Proceed() {
		return Result{}, false
	}
	if it.k >= len(it.order) {
		it.Exhaust()
		return Result{}, false
	}
	idx := it.order[it.k]
	it.k++
	sol := it.rows[int(idx)*it.m : (int(idx)+1)*it.m]
	return Result{Tuple: it.out.emit(it.t, sol), Weight: it.weights[idx]}, true
}

// Size reports the number of materialised solutions (for tests).
func (it *batchIter) Size() int { return len(it.order) }
