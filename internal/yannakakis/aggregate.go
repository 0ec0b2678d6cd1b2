package yannakakis

import (
	"context"
	"math"

	"repro/internal/relation"
)

// Semiring defines a commutative semiring (⊕, ⊗) for aggregate
// evaluation over join trees — the FAQ/AJAR-style extension of Part 2
// of the tutorial ("support for aggregates"): each input tuple carries
// an annotation; a join result's annotation is the ⊗ of its tuples'
// annotations; the query aggregate is the ⊕ over all results. The
// evaluation below runs in O(n) after the full reducer, never touching
// the (possibly huge) result set.
type Semiring struct {
	Name string
	// Zero is the ⊕ identity, One the ⊗ identity.
	Zero, One float64
	Add       func(a, b float64) float64 // ⊕
	Mul       func(a, b float64) float64 // ⊗
}

// CountingSemiring counts results: annotations 1, ⊕ = +, ⊗ = ×.
func CountingSemiring() *Semiring {
	return &Semiring{
		Name: "count", Zero: 0, One: 1,
		Add: func(a, b float64) float64 { return a + b },
		Mul: func(a, b float64) float64 { return a * b },
	}
}

// MinTropicalSemiring computes the minimum additive result weight (the
// top-1 of SumCost ranking) without enumeration: ⊕ = min, ⊗ = +.
func MinTropicalSemiring() *Semiring {
	return &Semiring{
		Name: "min-sum", Zero: math.Inf(1), One: 0,
		Add: math.Min,
		Mul: func(a, b float64) float64 { return a + b },
	}
}

// AnnotatedEval evaluates the semiring aggregate over all join results,
// annotating each input tuple with annotate(nodeIndex, row, weight).
// Passing nil annotates every tuple with its weight. Runs the bottom-up
// semi-join sweep plus one bottom-up annotation pass: O(n) data
// complexity. The top-down sweep would only drop rows the root's
// aggregate never reaches, so it is skipped.
func (q *Query) AnnotatedEval(s *Semiring, annotate func(node, row int, w float64) float64) float64 {
	if annotate == nil {
		annotate = func(_, _ int, w float64) float64 { return w }
	}
	// A background context never cancels, and the sweep reports no
	// other error.
	red, _ := q.ReduceKeep(context.Background(), 1)
	order := q.Tree.Order
	// ann[u][row] aggregates the subtree rooted at u for that row.
	ann := make([][]float64, len(red))
	for oi := len(order) - 1; oi >= 0; oi-- {
		u := order[oi]
		r := red[u]
		ann[u] = make([]float64, r.Len())
		for row := range r.Tuples {
			ann[u][row] = annotate(u, row, r.Weights[row])
		}
		for _, c := range q.Tree.Children[u] {
			shared := r.SharedAttrs(red[c])
			idx := relation.MustIndex(red[c], shared...)
			uCols, err := r.AttrIndexes(shared)
			if err != nil {
				panic(err)
			}
			for row, tp := range r.Tuples {
				sub := s.Zero
				for _, crow := range idx.Rows(idx.FindBy(tp, uCols)) {
					sub = s.Add(sub, ann[c][crow])
				}
				ann[u][row] = s.Mul(ann[u][row], sub)
			}
		}
	}
	total := s.Zero
	for _, v := range ann[q.Tree.Root] {
		total = s.Add(total, v)
	}
	return total
}
