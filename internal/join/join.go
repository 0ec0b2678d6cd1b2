// Package join implements the classic "two relations at a time" join
// operators that database optimizers favor: hash join, sort-merge join,
// semi-join, and left-deep plans built from them. Plans are instrumented
// to count intermediate-result tuples, because the whole point of §3 of
// the tutorial is that on cyclic queries these plans materialise
// intermediate results asymptotically larger than the final output.
package join

import (
	"fmt"

	"repro/internal/ranking"
	"repro/internal/relation"
)

// Stats records the work a plan execution performed.
type Stats struct {
	// IntermediateTuples is the total number of tuples materialised in
	// intermediate results (the final output is not counted).
	IntermediateTuples int
	// MaxIntermediate is the largest single intermediate result.
	MaxIntermediate int
	// OutputTuples is the size of the final result.
	OutputTuples int
	// ProbeSteps counts hash probes plus emitted matches (RAM-model work).
	ProbeSteps int
}

// outputSchema returns the natural-join schema: l's attributes followed
// by r's attributes that are not shared, plus the column mapping for r.
func outputSchema(l, r *relation.Relation) (attrs []string, rKeep []int) {
	attrs = append(attrs, l.Attrs...)
	for i, a := range r.Attrs {
		if !l.HasAttr(a) {
			attrs = append(attrs, a)
			rKeep = append(rKeep, i)
		}
	}
	return attrs, rKeep
}

// HashJoin computes the natural join of l and r on all shared attributes,
// combining tuple weights with agg. With no shared attributes it degrades
// to the cartesian product. Stats (may be nil) accumulates probe work.
func HashJoin(l, r *relation.Relation, agg ranking.Aggregate, stats *Stats) *relation.Relation {
	shared := l.SharedAttrs(r)
	attrs, rKeep := outputSchema(l, r)
	name := l.Name + "⋈" + r.Name
	var out relation.Builder

	if len(shared) == 0 {
		for i, lt := range l.Tuples {
			for j, rt := range r.Tuples {
				emit(&out, lt, rt, rKeep, agg.Combine(l.Weights[i], r.Weights[j]))
			}
		}
		if stats != nil {
			stats.ProbeSteps += l.Len() * r.Len()
		}
		return relation.Concat(name, attrs, &out)
	}

	rIdx := relation.MustIndex(r, shared...)
	lCols, err := l.AttrIndexes(shared)
	if err != nil {
		panic(err) // shared attrs come from l's schema; cannot fail
	}
	for i, lt := range l.Tuples {
		rows := rIdx.Rows(rIdx.FindBy(lt, lCols))
		if stats != nil {
			stats.ProbeSteps += 1 + len(rows)
		}
		for _, j := range rows {
			emit(&out, lt, r.Tuples[j], rKeep, agg.Combine(l.Weights[i], r.Weights[j]))
		}
	}
	return relation.Concat(name, attrs, &out)
}

// MergeJoin computes the same natural join as HashJoin using sort-merge.
// Both inputs are copied and sorted on the shared attributes.
func MergeJoin(l, r *relation.Relation, agg ranking.Aggregate) *relation.Relation {
	shared := l.SharedAttrs(r)
	if len(shared) == 0 {
		return HashJoin(l, r, agg, nil) // cartesian; sorting buys nothing
	}
	ls := l.Clone()
	rs := r.Clone()
	if err := ls.SortByCols(shared...); err != nil {
		panic(err)
	}
	if err := rs.SortByCols(shared...); err != nil {
		panic(err)
	}
	lCols, _ := ls.AttrIndexes(shared)
	rCols, _ := rs.AttrIndexes(shared)
	attrs, rKeep := outputSchema(l, r)
	var out relation.Builder

	cmp := func(a relation.Tuple, b relation.Tuple) int {
		for k := range shared {
			av, bv := a[lCols[k]], b[rCols[k]]
			if av != bv {
				if av < bv {
					return -1
				}
				return 1
			}
		}
		return 0
	}

	i, j := 0, 0
	for i < ls.Len() && j < rs.Len() {
		c := cmp(ls.Tuples[i], rs.Tuples[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the equal-key blocks on both sides.
			iEnd := i + 1
			for iEnd < ls.Len() && cmp(ls.Tuples[iEnd], rs.Tuples[j]) == 0 {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < rs.Len() && cmp(ls.Tuples[i], rs.Tuples[jEnd]) == 0 {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					emit(&out, ls.Tuples[a], rs.Tuples[b], rKeep, agg.Combine(ls.Weights[a], rs.Weights[b]))
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return relation.Concat(l.Name+"⋈"+r.Name, attrs, &out)
}

func emit(out *relation.Builder, lt, rt relation.Tuple, rKeep []int, w float64) {
	t := make(relation.Tuple, 0, len(lt)+len(rKeep))
	t = append(t, lt...)
	for _, c := range rKeep {
		t = append(t, rt[c])
	}
	out.Add(t, w)
}

// SemiJoin returns the tuples of l that join with at least one tuple of
// r on the shared attributes (weights unchanged). With no shared
// attributes, the result is l itself when r is non-empty, else empty:
// r's index on zero attributes has the empty key iff r has a row.
// The result keeps l's name and is sized exactly (Relation.Select).
func SemiJoin(l, r *relation.Relation) *relation.Relation {
	shared := l.SharedAttrs(r)
	rIdx := relation.MustIndex(r, shared...)
	lCols, _ := l.AttrIndexes(shared)
	out := l.Select(func(t relation.Tuple, _ float64) bool { return rIdx.FindBy(t, lCols) >= 0 })
	out.Name = l.Name
	return out
}

// Plan is a left-deep binary join plan: ((R1 ⋈ R2) ⋈ R3) ⋈ ...
type Plan struct {
	Rels []*relation.Relation
	Agg  ranking.Aggregate
}

// NewPlan builds a left-deep plan joining rels in order with agg.
func NewPlan(agg ranking.Aggregate, rels ...*relation.Relation) *Plan {
	return &Plan{Rels: rels, Agg: agg}
}

// Execute runs the plan with hash joins and returns the result along with
// intermediate-result statistics.
func (p *Plan) Execute() (*relation.Relation, *Stats) {
	stats := &Stats{}
	if len(p.Rels) == 0 {
		return relation.New("empty"), stats
	}
	acc := p.Rels[0]
	for i := 1; i < len(p.Rels); i++ {
		acc = HashJoin(acc, p.Rels[i], p.Agg, stats)
		if i < len(p.Rels)-1 {
			stats.IntermediateTuples += acc.Len()
			if acc.Len() > stats.MaxIntermediate {
				stats.MaxIntermediate = acc.Len()
			}
		}
	}
	stats.OutputTuples = acc.Len()
	return acc, stats
}

// BestOfAllOrders executes the plan for every permutation of the input
// relations and returns the result of the order with the smallest
// maximum intermediate, along with that order's stats. This implements
// the "no matter the join order" argument of §3: even the best binary
// plan blows up on the hard triangle instance. Exponential in the number
// of relations; intended for ≤ 6 relations.
func BestOfAllOrders(agg ranking.Aggregate, rels ...*relation.Relation) (*relation.Relation, *Stats, []int) {
	n := len(rels)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var (
		bestRes   *relation.Relation
		bestStats *Stats
		bestOrder []int
	)
	permute(perm, 0, func(order []int) {
		ordered := make([]*relation.Relation, n)
		for i, oi := range order {
			ordered[i] = rels[oi]
		}
		res, stats := NewPlan(agg, ordered...).Execute()
		if bestStats == nil || stats.MaxIntermediate < bestStats.MaxIntermediate {
			bestRes, bestStats = res, stats
			bestOrder = append([]int(nil), order...)
		}
	})
	return bestRes, bestStats, bestOrder
}

func permute(p []int, k int, visit func([]int)) {
	if k == len(p) {
		visit(p)
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permute(p, k+1, visit)
		p[k], p[i] = p[i], p[k]
	}
}

// SortedByWeight returns a copy of r sorted ascending by weight — the
// "join then sort" step of the batch top-k baseline.
func SortedByWeight(r *relation.Relation) *relation.Relation {
	c := r.Clone()
	c.SortByWeight()
	return c
}

// ValidateDisjointSchemas returns an error if two relations share an
// attribute name but are intended to be independent (used by tests
// constructing cartesian scenarios).
func ValidateDisjointSchemas(l, r *relation.Relation) error {
	if shared := l.SharedAttrs(r); len(shared) > 0 {
		return fmt.Errorf("join: schemas unexpectedly share %v", shared)
	}
	return nil
}
