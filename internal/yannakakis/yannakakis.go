// Package yannakakis implements the Yannakakis algorithm for acyclic
// join queries (§3 of the tutorial): a full reducer built from two
// semi-join sweeps over a join tree, followed by full-output evaluation
// in O(n + r).
//
// The full reducer leaves the database globally consistent: every tuple
// that survives participates in at least one result, so the join phase
// never generates dangling intermediate tuples.
//
// The bottom-up sweep here is ReduceDelta, which takes an optional
// predecessor: given the previous epoch's bottom-up relations and the
// set of changed base relations it redoes only the semi-joins a delta
// reached; given none it sweeps from scratch (ReduceKeep). FullReduceWith
// and FullReduce add one top-down sweep from scratch for the callers
// that need every surviving tuple to join: Evaluate, the factorized
// representation and materialised bag trees. A T-DP over a tree of
// atoms needs the bottom-up sweep alone, and internal/dp runs it fused
// with its grouping, one index per tree edge serving both.
package yannakakis

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/hypergraph"
	"repro/internal/join"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Query is an acyclic join query: relations aligned one-to-one with the
// hypergraph's edges, plus a join tree over them.
type Query struct {
	Rels []*relation.Relation
	H    *hypergraph.Hypergraph
	Tree *hypergraph.JoinTree
}

// NewQuery validates that rels match the hypergraph's edges (names and
// arities) and that the hypergraph is acyclic, then returns the query
// with its join tree.
func NewQuery(h *hypergraph.Hypergraph, rels []*relation.Relation) (*Query, error) {
	if len(rels) != len(h.Edges) {
		return nil, fmt.Errorf("yannakakis: %d relations for %d hyperedges", len(rels), len(h.Edges))
	}
	for i, e := range h.Edges {
		if len(e.Vars) != rels[i].Arity() {
			return nil, fmt.Errorf("yannakakis: edge %s has %d vars but relation %s arity %d",
				e.Name, len(e.Vars), rels[i].Name, rels[i].Arity())
		}
	}
	tree, ok := h.BuildJoinTree()
	if !ok {
		return nil, fmt.Errorf("yannakakis: query %s is cyclic", h)
	}
	return &Query{Rels: rels, H: h, Tree: tree}, nil
}

// Atom returns the relation of tree node i with its attributes named by
// the hypergraph's variables, so joins are by query variable rather
// than by the relation's own attribute names: the input relation itself
// when its attributes already are those, else a header sharing its
// tuples.
func (q *Query) Atom(i int) *relation.Relation {
	e, r := q.H.Edges[i], q.Rels[i]
	if slices.Equal(r.Attrs, e.Vars) {
		return r
	}
	out := relation.New(r.Name, e.Vars...)
	out.Tuples = r.Tuples
	out.Weights = r.Weights
	return out
}

// FullReduce runs the full reducer and returns the reduced relations
// (renamed to query variables), aligned with tree nodes. The input
// relations are not modified.
func (q *Query) FullReduce() []*relation.Relation {
	red, err := q.FullReduceWith(context.Background(), 1)
	if err != nil {
		// Unreachable: a background context never cancels and the sweeps
		// report no other errors.
		panic(err)
	}
	return red
}

// FullReduceWith is FullReduce on a bounded worker pool and under a
// context: ReduceKeep's bottom-up sweep, which documents the
// parallelism and the cancellation, followed by one top-down sweep from
// scratch — parents reduce children, root level first.
func (q *Query) FullReduceWith(ctx context.Context, workers int) ([]*relation.Relation, error) {
	bu, err := q.ReduceKeep(ctx, workers)
	if err != nil {
		return nil, err
	}
	fin := make([]*relation.Relation, len(bu))
	compute := func(u int) *relation.Relation {
		if p := q.Tree.Parent[u]; p >= 0 {
			return join.SemiJoin(bu[u], fin[p])
		}
		return bu[u]
	}
	for _, lv := range q.Tree.Levels() {
		if err := sweepLevel(ctx, workers, lv, fin, nil, nil, nil, compute); err != nil {
			return nil, err
		}
	}
	return fin, nil
}

// Evaluate computes the full join result with the Yannakakis algorithm:
// full reduction followed by joins along the tree. Tuple weights combine
// with agg. The output schema lists query variables in first-appearance
// order over the tree's DFS preorder.
func (q *Query) Evaluate(agg ranking.Aggregate) *relation.Relation {
	red := q.FullReduce()
	order := q.Tree.Order
	// Join children into parents bottom-up. After full reduction every
	// partial join is a subset of the final output projected onto the
	// subtree's variables, so intermediates stay output-bounded.
	acc := make([]*relation.Relation, len(red))
	copy(acc, red)
	for oi := len(order) - 1; oi >= 0; oi-- {
		u := order[oi]
		for _, c := range q.Tree.Children[u] {
			acc[u] = join.HashJoin(acc[u], acc[c], agg, nil)
		}
	}
	return acc[q.Tree.Root]
}
