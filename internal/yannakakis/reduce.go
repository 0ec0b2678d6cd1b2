package yannakakis

import (
	"context"
	"fmt"
	"slices"

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

// ReduceDelta is the bottom-up semi-join sweep, the first half of the
// full reducer (internal/dp fuses the same sweep with its grouping):
// children reduce parents, deepest level first, so node u's result
// (aligned with tree node ids) is its relation reduced by its subtree;
// the root's is fully reduced. A level's nodes, pairwise unrelated, fan
// out on at most workers goroutines, with the same result for any
// worker count.
//
// With old == nil it reduces from scratch (changedBase is ignored).
// Otherwise old must be an earlier result over the same join tree and
// changedBase flags, per tree node, the base relations that differ since.
// A node is then recomputed only when its base or a child's result
// changed, and the sweep stops where a recomputed result comes out
// content-identical to old's; everything untouched aliases old's
// relations. The returned dirty vector flags the nodes whose result
// differs from old (all of them without a predecessor).
//
// What holds for both inputs:
//  1. Without a predecessor no comparison work is done: every level is
//     its own work list, relation.SameContent is never called, and the
//     n-element dirty vector is the only extra allocation.
//  2. The output is bit-identical on both inputs, element by element.
//  3. The span is named by the predecessor: "reduce" without one,
//     "reduce-delta" with one.
//  4. Cancellation of ctx is checked between node tasks, and a canceled
//     reduction returns ctx.Err() and no relations.
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
		return changedBase[u] || slices.ContainsFunc(tree.Children[u], func(c int) bool { return dirty[c] })
	}
	compute := func(u int) *relation.Relation {
		r := q.Atom(u)
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
		if prev != nil && relation.SameContent(r, prev[u]) {
			r = prev[u]
		} else if dirty != nil {
			dirty[u] = true
		}
		out[u] = r
		return nil
	})
}
