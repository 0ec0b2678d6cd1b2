package yannakakis

import (
	"context"
	"fmt"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// Reduction is the full reducer's output with the bottom-up
// intermediates kept, both aligned with tree node ids. Keeping the
// intermediates is what makes incremental re-reduction possible:
// BottomUp[u] depends only on u's base relation and its children's
// BottomUp values, and Final[u] only on BottomUp[u] and the parent's
// Final, so a delta to one base relation invalidates exactly the
// nodes on paths through it — everything else aliases the old epoch.
type Reduction struct {
	// BottomUp[u] is node u's relation after the bottom-up semi-join
	// sweep (reduced by its subtree, not yet by its ancestors).
	BottomUp []*relation.Relation
	// Final[u] is node u's fully reduced relation.
	Final []*relation.Relation
}

// ReduceKeep is the full reducer keeping the bottom-up intermediates:
// ReduceDelta from no predecessor.
func (q *Query) ReduceKeep(ctx context.Context, workers int) (*Reduction, error) {
	red, _, err := q.ReduceDelta(ctx, workers, nil, nil)
	return red, err
}

// ReduceDelta is the full reducer — the only implementation of the two
// semi-join sweeps. Each sweep processes the tree one depth level at a
// time, and the nodes of a level — which are pairwise unrelated, so
// each reads only relations finalised by an earlier level and writes
// only its own slot — fan out on at most workers goroutines; the
// result is identical for any worker count.
//
// With old == nil it reduces from scratch (changedBase is ignored).
// Otherwise old must come from ReduceKeep or ReduceDelta over the same
// join tree and changedBase flags, per tree node, the base relations
// whose content differs from the run that produced old. The bottom-up
// sweep then recomputes a node only when its base changed or a child's
// bottom-up result changed, and stops propagating upward as soon as a
// recomputed result comes out content-identical to the old one
// (appends that dangle, deletes of dangling rows, changes absorbed by a
// child's semi-join); the top-down sweep mirrors that from the root.
// Everything untouched aliases the old epoch's relations.
//
// The returned dirty vector flags the nodes whose Final content differs
// from old.Final — the seed set for downstream incremental
// recomputation; without a predecessor it is all true.
//
// What holds for both inputs:
//  1. Without a predecessor no comparison work is done: every level is
//     its own work list, sameContent is never called, and the two
//     n-element flag vectors are the only extra allocations.
//  2. The output is bit-identical on both inputs, element by element,
//     in BottomUp and Final.
//  3. The span is named by the predecessor: "reduce" without one,
//     "reduce-delta" with one.
//  4. Every node task runs under ctx: cancellation is checked between
//     node tasks (parallel.ForEach), and a canceled reduction returns
//     ctx.Err() and no relations.
func (q *Query) ReduceDelta(ctx context.Context, workers int, old *Reduction, changedBase []bool) (*Reduction, []bool, error) {
	n := len(q.Rels)
	name := "reduce"
	var oldBU, oldFinal []*relation.Relation
	if old != nil {
		if len(old.BottomUp) != n || len(old.Final) != n || len(changedBase) != n {
			return nil, nil, fmt.Errorf("yannakakis: ReduceDelta shape mismatch (%d nodes, old %d/%d, %d changed flags)",
				n, len(old.BottomUp), len(old.Final), len(changedBase))
		}
		name, oldBU, oldFinal = "reduce-delta", old.BottomUp, old.Final
	}
	ctx, sp := obs.StartSpan(ctx, name)
	defer sp.End()
	tree := q.Tree
	levels := tree.Levels()

	// Bottom-up: children reduce parents, deepest level first so every
	// node's children are final when its level runs.
	bu := make([]*relation.Relation, n)
	buDirty := make([]bool, n)
	buStale := func(u int) bool {
		stale := changedBase[u]
		for _, c := range tree.Children[u] {
			stale = stale || buDirty[c]
		}
		return stale
	}
	buCompute := func(u int) *relation.Relation {
		r := q.queryRel(u)
		for _, c := range tree.Children[u] {
			r = join.SemiJoin(r, bu[c])
		}
		return r
	}
	for li := len(levels) - 1; li >= 0; li-- {
		if err := sweepLevel(ctx, workers, levels[li], bu, oldBU, buDirty, buStale, buCompute); err != nil {
			return nil, nil, err
		}
	}

	// Top-down: parents reduce children, root level first.
	fin := make([]*relation.Relation, n)
	dirty := make([]bool, n)
	finStale := func(u int) bool {
		p := tree.Parent[u]
		return buDirty[u] || (p >= 0 && dirty[p])
	}
	finCompute := func(u int) *relation.Relation {
		if p := tree.Parent[u]; p >= 0 {
			return join.SemiJoin(bu[u], fin[p])
		}
		return bu[u]
	}
	for _, lv := range levels {
		if err := sweepLevel(ctx, workers, lv, fin, oldFinal, dirty, finStale, finCompute); err != nil {
			return nil, nil, err
		}
	}
	return &Reduction{BottomUp: bu, Final: fin}, dirty, nil
}

// sweepLevel runs one level of one semi-join sweep: out[u] = compute(u)
// for the level's nodes, fanned out on the worker pool (each task
// writes only its own out/dirty slot). With a previous epoch (prev !=
// nil) a node whose inputs are not stale aliases prev[u] without being
// computed, and a computed node whose result comes out content-equal
// to prev[u] aliases it too; only the rest are flagged dirty. Without
// one, every node is computed and flagged.
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
		} else {
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
