// Package repro is a from-scratch Go implementation of the systems
// surveyed and unified in "Optimal Join Algorithms Meet Top-k"
// (Tziavelis, Gatterbauer, Riedewald — SIGMOD 2020): classic top-k
// middleware (TA/FA/NRA, rank join), (worst-case) optimal join
// algorithms (Yannakakis, Generic-Join, Leapfrog Triejoin, AGM bounds,
// width-based decompositions), and — the centre piece — any-k ranked
// enumeration over join queries.
//
// This file is the high-level facade: declare a query (a hypergraph
// over weighted relations), compile it once, then execute it as many
// times as you like with per-call options:
//
//	q := repro.NewQuery().
//		Rel("R", []string{"A", "B"}, rTuples, rWeights).
//		Rel("S", []string{"B", "C"}, sTuples, sWeights)
//	p, err := repro.Compile(q) // hypergraph analysis + planning, once
//	it, err := p.Run(repro.WithRanking(repro.SumCost), repro.WithK(10))
//	defer it.Close()
//	for {
//		res, ok := it.Next()
//		if !ok { break }
//		fmt.Println(res.Tuple, res.Weight)
//	}
//	if err := it.Err(); err != nil { ... } // closed / canceled / clean drain
//
// Prepared handles are safe for concurrent Run calls, so one Compile
// can serve many top-k requests with different k, ranking functions
// (WithRanking), algorithm variants (WithVariant), and cancellation
// contexts (WithContext). The prepare phase runs on a bounded worker
// pool by default — level-synchronized T-DP instantiation for acyclic
// queries, decomposition-bag materialisation for cyclic ones, both
// bit-identical to sequential output (see docs/ARCHITECTURE.md);
// inputs below a size threshold stay sequential, and WithParallelism
// pins an explicit worker count (1 forces sequential). The one-shot
// helpers Ranked, TopK, Count and IsEmpty remain as thin wrappers that
// compile and execute in one step.
//
// Every query compiles to a tree (or a union of trees) of bags that the
// tree-based dynamic program runs over. An acyclic query is the
// degenerate case, the join tree of its own atoms: nothing is
// materialised. Cyclic cycle queries of any length (in either edge
// orientation) are decomposed automatically: a Generic-Join bag for the
// triangle, the submodular-width three-tree union for the 4-cycle, and
// the generic fhtw-2 fan plan for longer cycles. Every other cyclic shape — K4,
// bowtie, star-with-chord, cliques, fused triangles, arbitrary
// hypergraphs with higher-arity atoms — compiles through the generic
// GHD planner: a generalized hypertree decomposition is searched
// (exhaustive vertex-elimination orders for small queries, min-degree /
// min-fill greedy orders for larger ones, scored by the maximum
// fractional edge cover over the bags), each bag is materialised with
// Generic-Join, and the acyclic bag tree feeds the same any-k
// machinery. See internal/hypergraph.Decompose for the width heuristics
// and internal/decomp for the one preparer every shape — the atom tree
// and the canonical cycles included — goes through, and its weight
// charging.
//
// Execution is observable per phase: when the context passed via
// WithContext carries an internal/obs trace recorder (the serving
// layer installs one per request), Compile, Run, Sample, and
// ApplyDelta record a span tree — decompose, cost-model, reduce,
// per-bag materialize, instantiate, enumerate with first-/k'th-result
// marks, per-node delta reuse decisions — that anykd surfaces at
// /v1/traces/{id}. Library callers that install no recorder pay
// nothing: the span plumbing is allocation-free in that case.
package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Value is a domain value (attributes are integer-encoded; use
// relation.Dictionary in cmd tools for string data).
type Value = relation.Value

// Tuple is a sequence of values.
type Tuple = relation.Tuple

// Result is one join result in ranking order.
type Result = core.Result

// Iterator yields join results in ranking order. Pull with Next until
// it reports false, then check Err: nil after a clean drain, ErrClosed
// after an early Close, or the context's error after cancellation.
// Always Close iterators you do not drain; Close is idempotent.
type Iterator = core.Iterator

// Variant selects the enumeration algorithm.
type Variant = core.Variant

// Re-exported algorithm variants. See internal/core for semantics.
const (
	Eager = core.Eager
	Lazy  = core.Lazy
	Quick = core.Quick
	All   = core.All
	Take2 = core.Take2
	Rec   = core.Rec
	Batch = core.Batch
)

// Ranking functions.
var (
	// SumCost ranks by ascending sum of weights (lightest first).
	SumCost ranking.Aggregate = ranking.SumCost{}
	// SumBenefit ranks by descending sum of weights (heaviest first).
	SumBenefit ranking.Aggregate = ranking.SumBenefit{}
	// MaxCost ranks by ascending maximum weight (bottleneck).
	MaxCost ranking.Aggregate = ranking.MaxCost{}
	// MinBenefit ranks by descending minimum weight.
	MinBenefit ranking.Aggregate = ranking.MinBenefit{}
	// ProductCost ranks by ascending product of positive weights; a Run
	// or ApplyDelta that would rank a weight ≤ 0 under it fails, naming
	// relation and row.
	ProductCost ranking.Aggregate = ranking.ProductCost{}
)

// Query is a join query under construction: one atom per relation, each
// binding the relation's columns to named query variables.
type Query struct {
	edges []hypergraph.Edge
	rels  []*relation.Relation
	err   error
}

// NewQuery returns an empty query builder.
func NewQuery() *Query { return &Query{} }

// firstNaN returns the index of the first NaN weight, or -1. NaN is
// rejected wherever weights enter (here and in ApplyDelta): Less is
// false both ways on it, which silently breaks every heap's order.
func firstNaN(weights []float64) int {
	for i, w := range weights {
		if math.IsNaN(w) {
			return i
		}
	}
	return -1
}

// Rel adds a relation atom. vars names the query variable bound to each
// column; tuples[i] has weight weights[i] (weights may be nil = all 0;
// ±Inf are legal, NaN is an error because it has no rank).
// Relation names must be unique across the query (self-joins repeat the
// data under distinct names), and the variables within one atom must be
// distinct (express R(A,A) by filtering the tuples beforehand).
func (q *Query) Rel(name string, vars []string, tuples []Tuple, weights []float64) *Query {
	if q.err != nil {
		return q
	}
	for _, e := range q.edges {
		if e.Name == name {
			q.err = fmt.Errorf("repro: duplicate relation name %q (self-joins must use distinct names per atom)", name)
			return q
		}
	}
	seen := make(map[string]bool, len(vars))
	for _, v := range vars {
		if seen[v] {
			q.err = fmt.Errorf("repro: relation %s repeats variable %s within one atom (pre-filter the tuples to express equality)", name, v)
			return q
		}
		seen[v] = true
	}
	if weights != nil && len(weights) != len(tuples) {
		q.err = fmt.Errorf("repro: relation %s has %d tuples but %d weights", name, len(tuples), len(weights))
		return q
	}
	for i, t := range tuples {
		if len(t) != len(vars) {
			q.err = fmt.Errorf("repro: relation %s tuple %d has arity %d, want %d", name, i, len(t), len(vars))
			return q
		}
	}
	if i := firstNaN(weights); i >= 0 {
		q.err = fmt.Errorf("repro: relation %s tuple %d has a NaN weight", name, i)
		return q
	}
	r := relation.New(name, vars...)
	r.Tuples = make([]Tuple, len(tuples))
	r.Weights = make([]float64, len(tuples))
	copy(r.Tuples, tuples)
	copy(r.Weights, weights)
	q.edges = append(q.edges, hypergraph.Edge{Name: name, Vars: vars})
	q.rels = append(q.rels, r)
	return q
}

// OutAttrs reports the output schema the iterators of this query will
// use, computed from the query structure alone (no data is touched, so
// it is cheap even on large relations) by the shape selection Compile
// runs: for acyclic queries the query variables in join-tree preorder;
// for cycle queries of any length the query variables in the order the
// cycle is walked (starting from the first declared atom's first
// variable — the positions the canonical cycle decompositions
// enumerate); and for every other cyclic shape (compiled through the
// generic GHD planner) the query variables in sorted order.
// Prepared.OutAttrs reports the same schema from a compiled handle.
func (q *Query) OutAttrs() ([]string, error) {
	if q.err != nil {
		return nil, q.err
	}
	if len(q.rels) == 0 {
		return nil, fmt.Errorf("repro: empty query")
	}
	s, path, err := q.planShape()
	switch {
	case err != nil:
		return nil, err
	case path == "ghd":
		return decomp.GHDAttrs(q.edges), nil
	}
	return s.Attrs, nil
}

// planShape selects the query's plan shape from its structure alone and
// names the planner path that chose it: "acyclic", the tree of its
// atoms; "cycle", the canonical shape of its cycle length; or "ghd",
// with no shape yet — Compile searches the decomposition, whose schema
// is decomp.GHDAttrs whatever it finds.
func (q *Query) planShape() (*decomp.Shape, string, error) {
	if s, ok := decomp.AcyclicShape(q.edges); ok {
		return s, "acyclic", nil
	}
	if order, walk, ok := q.matchCycleShape(); ok {
		// The canonical shape of the cycle's length, over the user's own
		// atoms and variables in walk order.
		s, err := decomp.CycleShape(q.edges, order, walk)
		return s, "cycle", err
	}
	return nil, "ghd", nil
}

// Fingerprint returns a stable identifier of the query's *shape*: a
// hex-encoded SHA-256 over the canonical form of the atom multiset,
// where each atom is rendered as its arity plus the query variables it
// binds in declaration position order, and the rendered atoms are
// sorted lexicographically. The fingerprint is therefore independent of
// the order the Rel calls declared the atoms, of the relation names,
// and of the data (tuples and weights) — but sensitive to arities and
// to the variable pattern, i.e. which positions of which atoms share a
// variable. Variable names are part of the pattern: renaming variables
// consistently produces a different fingerprint (no graph-isomorphism
// canonicalisation is attempted, so equal fingerprints always mean
// structurally identical queries — the safe direction for a cache key).
//
// It is the natural key for caching compiled plans across requests: two
// queries with equal fingerprints over the same relations (in any
// declaration order) compile to interchangeable plans. The serving
// layer (internal/server) combines it with dataset identities and the
// ranking function to key its prepared-plan registry.
func (q *Query) Fingerprint() (string, error) {
	if q.err != nil {
		return "", q.err
	}
	if len(q.edges) == 0 {
		return "", fmt.Errorf("repro: empty query")
	}
	atoms := make([]string, len(q.edges))
	for i, e := range q.edges {
		// Length-prefixed rendering (arity, then "len.name" per variable)
		// is injective for arbitrary variable names — no separator a name
		// could contain can smuggle one shape into another's canonical
		// form, so distinct shapes cannot collide before hashing.
		var b strings.Builder
		fmt.Fprintf(&b, "%d:", len(e.Vars))
		for _, v := range e.Vars {
			fmt.Fprintf(&b, "%d.%s,", len(v), v)
		}
		atoms[i] = b.String()
	}
	sort.Strings(atoms)
	h := sha256.Sum256([]byte(strings.Join(atoms, ";")))
	return hex.EncodeToString(h[:]), nil
}

// Ranked compiles the query and returns a ranked-enumeration iterator —
// the one-shot form of Compile + Run. Acyclic queries run the T-DP
// any-k machinery over the tree of their atoms; triangles, 4-cycles,
// and longer cycles are decomposed automatically, and every other
// cyclic shape compiles through the generic GHD planner. For repeated
// execution over the same data, Compile once and Run many times
// instead.
func (q *Query) Ranked(agg ranking.Aggregate, v Variant) (Iterator, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.Run(WithRanking(agg), WithVariant(v))
}

// TopK runs Ranked and collects the first k results.
func (q *Query) TopK(agg ranking.Aggregate, v Variant, k int) ([]Result, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.TopK(k, WithRanking(agg), WithVariant(v))
}

// matchCycleShape detects whether the query is a variable-renaming of
// the l-cycle R1(A0,A1), ..., Rl(A_{l-1},A0) with edges in *either*
// orientation. It walks the query structure only (so OutAttrs stays
// cheap on large relations) and reports the edge order around the cycle
// plus the query's variables in walk order, starting from the first
// declared atom's first variable: walk[i] is the variable order[i] is
// entered through — the cycle's output schema, labeled with the user's
// names instead of the engine's canonical placeholders.
func (q *Query) matchCycleShape() (order []int, walk []string, ok bool) {
	l := len(q.edges)
	if l < 3 {
		return nil, nil, false
	}
	// A genuine l-cycle is a set of l binary edges over exactly l
	// distinct variables, each occurring in exactly two edges. (Without
	// the occurrence check, shapes like the bowtie — which admit a
	// closed walk through every edge — would be misclassified.)
	occ := make(map[string]int)
	for _, e := range q.edges {
		if len(e.Vars) != 2 || e.Vars[0] == e.Vars[1] {
			return nil, nil, false
		}
		occ[e.Vars[0]]++
		occ[e.Vars[1]]++
	}
	if len(occ) != l {
		return nil, nil, false
	}
	for _, c := range occ {
		if c != 2 {
			return nil, nil, false
		}
	}
	// Walk the cycle undirected: start at edge 0 as declared, then at
	// each step take the unused edge containing the current variable and
	// leave it through its other one, whichever way round it was declared.
	used := make([]bool, l)
	order, walk = []int{0}, []string{q.edges[0].Vars[0]}
	used[0] = true
	cur := q.edges[0].Vars[1]
	for len(order) < l {
		found := -1
		for i, e := range q.edges {
			if !used[i] && (e.Vars[0] == cur || e.Vars[1] == cur) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, nil, false
		}
		used[found] = true
		order, walk = append(order, found), append(walk, cur)
		if e := q.edges[found]; e.Vars[0] == cur {
			cur = e.Vars[1]
		} else {
			cur = e.Vars[0]
		}
	}
	if cur != q.edges[0].Vars[0] {
		return nil, nil, false
	}
	return order, walk, true
}

// Count returns the number of join results without enumerating them:
// the counting pass over the join tree of an acyclic query (O(n) after
// reduction), the same pass over the bag trees of a cyclic one (linear
// in the materialised bags); see Prepared.Count.
func (q *Query) Count() (int, error) {
	p, err := Compile(q)
	if err != nil {
		return 0, err
	}
	return p.Count()
}

// IsEmpty answers the Boolean query "does the join have any result?"
// with early termination (§1 of the tutorial).
func (q *Query) IsEmpty() (bool, error) {
	p, err := Compile(q)
	if err != nil {
		return false, err
	}
	return p.IsEmpty()
}
