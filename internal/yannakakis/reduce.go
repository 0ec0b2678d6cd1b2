package yannakakis

import (
	"context"
	"fmt"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// ReduceKeep is the bottom-up semi-join sweep from scratch: ReduceDelta
// with no predecessor.
func (q *Query) ReduceKeep(ctx context.Context, workers int) ([]*relation.Relation, error) {
	bu, _, err := q.ReduceDelta(ctx, workers, nil, nil)
	return bu, err
}

// ReduceDelta is the bottom-up semi-join sweep — the only
// implementation of it, and all a T-DP is built on (package dp says
// why): children reduce parents, deepest level first, so node u's
// result (aligned with tree node ids) is its relation reduced by its
// subtree, not yet by its ancestors; the root's is fully reduced. The
// nodes of a level — which are pairwise unrelated, so each reads only
// results of a deeper level and writes only its own slot — fan out on
// at most workers goroutines; the result is identical for any worker
// count.
//
// With old == nil it reduces from scratch (changedBase is ignored).
// Otherwise old must be the result of ReduceKeep or ReduceDelta over
// the same join tree and changedBase flags, per tree node, the base
// relations whose content differs from the run that produced old. The
// sweep then recomputes a node only when its base changed or a child's
// result changed, and stops propagating upward as soon as a recomputed
// result comes out content-identical to the old one (appends that
// dangle, deletes of dangling rows, changes absorbed by a child's
// semi-join). Everything untouched aliases old's relations. Since a
// node's result depends only on its base relation and its children's
// results, this is exact.
//
// The returned dirty vector flags the nodes whose result differs from
// old — the seed set for downstream incremental recomputation; without
// a predecessor it is all true.
//
// What holds for both inputs:
//  1. Without a predecessor no comparison work is done: every level is
//     its own work list, sameContent is never called, and the n-element
//     dirty vector is the only extra allocation.
//  2. The output is bit-identical on both inputs, element by element.
//  3. The span is named by the predecessor: "reduce" without one,
//     "reduce-delta" with one.
//  4. Every node task runs under ctx: cancellation is checked between
//     node tasks (parallel.ForEach), and a canceled reduction returns
//     ctx.Err() and no relations.
func (q *Query) ReduceDelta(ctx context.Context, workers int, old []*relation.Relation, changedBase []bool) ([]*relation.Relation, []bool, error) {
	n := len(q.Rels)
	name := "reduce"
	if old != nil {
		if len(old) != n || len(changedBase) != n {
			return nil, nil, fmt.Errorf("yannakakis: ReduceDelta shape mismatch (%d nodes, old %d, %d changed flags)",
				n, len(old), len(changedBase))
		}
		name = "reduce-delta"
	}
	ctx, sp := obs.StartSpan(ctx, name)
	defer sp.End()
	tree := q.Tree
	levels := tree.Levels()
	bu := make([]*relation.Relation, n)
	dirty := make([]bool, n)
	stale := func(u int) bool {
		s := changedBase[u]
		for _, c := range tree.Children[u] {
			s = s || dirty[c]
		}
		return s
	}
	compute := func(u int) *relation.Relation {
		r := q.queryRel(u)
		for _, c := range tree.Children[u] {
			r = join.SemiJoin(r, bu[c])
		}
		return r
	}
	for li := len(levels) - 1; li >= 0; li-- {
		if err := sweepLevel(ctx, workers, levels[li], bu, old, dirty, stale, compute); err != nil {
			return nil, nil, err
		}
	}
	return bu, dirty, nil
}

// sweepLevel runs one level of one semi-join sweep: out[u] = compute(u)
// for the level's nodes, fanned out on the worker pool (each task
// writes only its own out/dirty slot). With a previous epoch (prev !=
// nil) a node whose inputs are not stale aliases prev[u] without being
// computed, and a computed node whose result comes out content-equal
// to prev[u] aliases it too; only the rest are flagged dirty. Without
// one, every node is computed and flagged (dirty may then be nil).
func sweepLevel(ctx context.Context, workers int, level []int, out, prev []*relation.Relation, dirty []bool,
	stale func(u int) bool, compute func(u int) *relation.Relation) error {
	work := level
	if prev != nil {
		work = nil
		for _, u := range level {
			if stale(u) {
				work = append(work, u)
			} else {
				out[u] = prev[u]
			}
		}
	}
	return parallel.ForEach(ctx, workers, len(work), func(i int) error {
		u := work[i]
		r := compute(u)
		if prev != nil && sameContent(r, prev[u]) {
			r = prev[u]
		} else if dirty != nil {
			dirty[u] = true
		}
		out[u] = r
		return nil
	})
}

// sameContent reports exact content equality — same tuples in the same
// row order, bit-equal weights — which is the right notion here
// because semi-joins preserve left row order, so equal inputs always
// reproduce the old output verbatim. Shared backing arrays (epochs
// alias unchanged relations) short-circuit the scan.
func sameContent(a, b *relation.Relation) bool {
	if a == b {
		return true
	}
	if a.Len() != b.Len() || a.Arity() != b.Arity() {
		return false
	}
	if a.Len() == 0 {
		return true
	}
	if &a.Tuples[0] == &b.Tuples[0] && &a.Weights[0] == &b.Weights[0] {
		return true
	}
	for i, at := range a.Tuples {
		if a.Weights[i] != b.Weights[i] {
			return false
		}
		bt := b.Tuples[i]
		if len(at) > 0 && &at[0] == &bt[0] {
			continue // rows are shared slices across epochs
		}
		for j, v := range at {
			if v != bt[j] {
				return false
			}
		}
	}
	return true
}
