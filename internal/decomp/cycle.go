package decomp

import (
	"fmt"
	"math"

	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// CycleAttrs returns the canonical output schema of
// PrepareCycleSingleTree for an l-cycle: A0, A1, ..., A_{l-1}.
func CycleAttrs(l int) []string {
	attrs := make([]string, l)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	return attrs
}

// CycleShape returns the shape of an l-cycle query. edges are the
// query's binary atoms as declared, order lists them along the cycle
// (order[i] is the atom joining attrs[i] and attrs[i+1 mod l], its two
// columns in either orientation — Generic-Join binds columns to
// variables by name, so no relation is ever flipped), and attrs names
// the variables in walk order; attrs is also the output schema. The
// triangle is one bag and the 4-cycle the submodular union of three
// trees. A longer cycle is the fan, unless coster prices one bag over
// the whole walk clearly cheaper than the fan's bags together (see
// costedCycle); with a nil coster it is always the fan.
func CycleShape(edges []hypergraph.Edge, order []int, attrs []string, coster hypergraph.BagCoster) (*Shape, error) {
	switch {
	case len(order) == 4:
		return submodularShape(edges, order, attrs)
	case len(order) < 5 || coster == nil:
		return fanShape(edges, order, attrs)
	}
	return costedCycle(edges, order, attrs, coster)
}

// costedCycle ranks the two closed-form plans of an l-cycle, l ≥ 5, by
// estimated materialisation with hypergraph.Cheapest: the fan, priced
// at the sum of coster.BagCost over its l−2 bags, against one bag over
// all l walk variables. The fan's middle bags are R × π_{A0} whatever
// the output, while one Generic-Join over the whole cycle is
// worst-case optimal: it costs at most the AGM bound (n^{l/2}) and
// tracks the output when that is small. The one bag wins only when it
// is clearly cheaper, so a tie (within Cheapest's relative 1e-6) keeps
// the fan, whose width, 2, is below the one bag's l/2. The one bag is
// the triangle's construction generalised — its Generic-Join order
// pinned to the walk — and keeps Kind "cycle". Either way the shape
// carries the winner's bags and estimates (Decomposition, EstBagSizes).
func costedCycle(edges []hypergraph.Edge, order []int, attrs []string, coster hypergraph.BagCoster) (*Shape, error) {
	s, err := fanShape(edges, order, attrs)
	if err != nil {
		return nil, err
	}
	tr := &s.trees[0]
	dec, err := hypergraph.New(edges...).Cheapest(coster, tr.dec.Bags, [][]string{attrs})
	if err != nil {
		return nil, err
	}
	if len(dec.Bags) == 1 {
		tr.pin = attrs
	}
	tr.dec, s.Decomposition, s.EstBagSizes = dec, dec.String(), dec.EstBagSizes
	return s, nil
}

// fanShape is the textbook fractional-hypertree-width-2 "fan" of an
// l-cycle R1(A0,A1) ⋈ R2(A1,A2) ⋈ ... ⋈ Rl(A_{l-1},A0): l−2 bags
// {A0, A_i, A_{i+1}}, i = 1..l−2, in a path join tree.
//
//	B_1     = R1 ⋈ R2                      (covers R1, R2)
//	B_i     = R_{i+1} × π_{A0}(R1 or Rl)   (middle bags, 2 ≤ i ≤ l−3)
//	B_{l-2} = R_{l-1} ⋈ R_l                (covers R_{l-1}, R_l)
//
// No relation lies inside a middle bag's A0, so prepareGHD covers it
// with a projection atom: the identity-weighted distinct A0 values of
// the smaller of the two relations that hold A0 (R1 on a tie). Every
// bag is O(n·d) ≤ O(n²) where d is the number of distinct A0 values —
// the Θ(n²) worst case being exactly why §3 calls single-tree plans
// suboptimal for cycles (submodular width is lower). For l = 3 the fan
// is the single bag {A0,A1,A2} — the triangle — whose Generic-Join order
// is pinned to the walk.
func fanShape(edges []hypergraph.Edge, order []int, attrs []string) (*Shape, error) {
	l := len(order)
	if l < 3 {
		return nil, fmt.Errorf("decomp: cycle needs at least 3 relations, got %d", l)
	}
	bags := make([][]string, l-2)
	for i := range bags {
		bags[i] = []string{attrs[0], attrs[i+1], attrs[i+2]}
	}
	s := &Shape{Kind: "cycle", Edges: edges, Attrs: attrs, trees: []shapeTree{{dec: hypergraph.New(edges...).FixedDecomposition(bags...)}}}
	if l == 3 {
		s.Kind, s.trees[0].pin = "triangle", attrs
	}
	return s, nil
}

// submodularShape is the submodular-width-1.5 plan of the 4-cycle
// R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D) ⋈ R4(D,A). Let Δ2 = √|R2| and Δ4 = √|R4|;
// b is heavy iff its fanout in R2 exceeds Δ2, d heavy iff its fanout in
// R4 exceeds Δ4 (so at most √|R2| resp. √|R4| heavy values exist). Three
// disjoint cases, each an acyclic 2-bag tree over filtered inputs:
//
//	T1 (b light ∧ d light): W1(A,B,C) = R1 ⋈ σ_lightB R2         ≤ |R1|·Δ2
//	                        W2(A,C,D) = R3 ⋈ σ_lightD R4         ≤ |R3|·Δ4
//	T2 (b heavy):           V1(B,C,D) = σ_heavyB R2 ⋈ R3         ≤ √|R2|·|R3|
//	                        V2(A,B,D) = σ_heavyB R1 ⋈ R4         ≤ √|R2|·|R4|
//	T3 (b light ∧ d heavy): U1(A,B,D) = σ_heavyD R4 ⋈ σ_lightB R1 ≤ √|R4|·|R1|
//	                        U2(B,C,D) = σ_heavyD R3 ⋈ σ_lightB R2 ≤ √|R4|·|R2|
//
// In T2 and T3 the bags share {B,D} and each of A, C lives in one bag
// only, so both are valid join trees. The output predicates (heaviness
// of the result's b and d values) partition the 4-cycle output, so the
// ranked union of the three trees is exact without deduplication.
func submodularShape(edges []hypergraph.Edge, order []int, attrs []string) (*Shape, error) {
	a, b, c, d := attrs[0], attrs[1], attrs[2], attrs[3]
	r1, r2, r3, r4 := order[0], order[1], order[2], order[3]
	const onB, onD = 0, 1 // indexes into splits
	h := hypergraph.New(edges...)
	return &Shape{
		Kind:   "four-cycle",
		Edges:  edges,
		Attrs:  attrs,
		splits: []split{{v: b, in: r2}, {v: d, in: r4}},
		trees: []shapeTree{
			{dec: h.FixedDecomposition([]string{a, b, c}, []string{a, c, d}),
				sels: []sel{{r2, onB, false}, {r4, onD, false}}},
			{dec: h.FixedDecomposition([]string{b, c, d}, []string{a, b, d}),
				sels: []sel{{r1, onB, true}, {r2, onB, true}}},
			{dec: h.FixedDecomposition([]string{a, b, d}, []string{b, c, d}),
				sels: []sel{{r1, onB, false}, {r2, onB, false}, {r3, onD, true}, {r4, onD, true}}},
		},
	}, nil
}

// split names one heavy/light partition of a variable's values: a value
// of v is heavy iff its fanout in edge `in` exceeds √|in|.
type split struct {
	v  string
	in int
}

// sel filters one input of one tree: keep the rows of edge whose value
// of splits[split].v is heavy (or light). The column is found by the
// variable's name, whichever way round the atom was declared.
type sel struct {
	edge, split int
	heavy       bool
}

// heavyValues evaluates the shape's splits on one epoch's relations.
func (s *Shape) heavyValues(qrels []*relation.Relation) []map[relation.Value]bool {
	heavy := make([]map[relation.Value]bool, len(s.splits))
	for i, sp := range s.splits {
		r := qrels[sp.in]
		threshold := int(math.Sqrt(float64(r.Len())))
		heavy[i] = make(map[relation.Value]bool)
		c := r.AttrIndex(sp.v)
		byV := relation.MustIndex(r, sp.v)
		for g := 0; g < byV.Keys(); g++ {
			if rows := byV.Rows(g); len(rows) > threshold {
				heavy[i][r.Tuples[rows[0]][c]] = true
			}
		}
	}
	return heavy
}

// inputs applies a tree's selections: the relations its bags read, in
// edge order.
func (s *Shape) inputs(tr shapeTree, qrels []*relation.Relation, heavy []map[relation.Value]bool) []*relation.Relation {
	if len(tr.sels) == 0 {
		return qrels
	}
	in := append([]*relation.Relation(nil), qrels...)
	for _, f := range tr.sels {
		c, hv := qrels[f.edge].AttrIndex(s.splits[f.split].v), heavy[f.split]
		in[f.edge] = qrels[f.edge].Select(func(t relation.Tuple, _ float64) bool { return hv[t[c]] == f.heavy })
	}
	return in
}

// PrepareCycleSingleTree compiles the l-cycle query
// R1(A0,A1) ⋈ R2(A1,A2) ⋈ ... ⋈ Rl(A_{l-1},A0), l ≥ 3, with the fan
// decomposition (fanShape). For l = 4 prefer
// PrepareFourCycleSubmodular; this plan still accepts that shape for
// comparison experiments. Output tuples are ordered (A0,...,A_{l-1}).
func PrepareCycleSingleTree(rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	return prepareCycle(fanShape, CycleAttrs(len(rels)), rels, agg, opts)
}

// prepareCycle prepares, from nothing, the given shape of the canonical
// cycle R1(a0,a1), ..., Rl(a_{l-1},a0) over attrs.
func prepareCycle(build func([]hypergraph.Edge, []int, []string) (*Shape, error), attrs []string, rels []*relation.Relation, agg ranking.Aggregate, opts []PrepareOption) (*Plan, error) {
	edges, order := make([]hypergraph.Edge, len(attrs)), make([]int, len(attrs))
	for i, a := range attrs {
		edges[i] = hypergraph.E(fmt.Sprintf("R%d", i+1), a, attrs[(i+1)%len(attrs)])
		order[i] = i
	}
	s, err := build(edges, order, attrs)
	if err != nil {
		return nil, err
	}
	return s.Prepare(rels, agg, opts...)
}
