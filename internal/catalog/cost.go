package catalog

import (
	"math"
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// maxAGMCapVars bounds the bag sizes for which BagCost additionally
// solves the AGM log-weighted cover LP to cap the chain estimate. The
// LP is exact worst-case information but costs a simplex solve per
// call; beyond this many variables the chain estimate stands alone so
// the decomposition search stays cheap on the bags of large queries.
const maxAGMCapVars = 8

// CostModel estimates join sizes for one query from per-relation
// statistics. It implements hypergraph.BagCoster, so the decomposition
// search can rank candidate bags by estimated materialization cost, and
// drives the Generic-Join variable-order search (ChooseOrder).
type CostModel struct {
	h     *hypergraph.Hypergraph
	edges []hypergraph.Edge
	stats []*RelationStats // aligned with edges
	sizes []float64        // max(1, rows) per edge: AGM-cap input
	empty bool             // some input relation is empty → every join is empty
}

// NewCostModel builds a cost model for the query given by edges, whose
// relations align with rels. Statistics come from cat when it holds an
// entry under the edge's name with matching arity; otherwise they are
// collected on the spot from the aligned relation. When some edge has
// neither (no entry and a nil relation), no model can be built and
// NewCostModel returns nil.
func NewCostModel(edges []hypergraph.Edge, rels []*relation.Relation, cat Catalog) *CostModel {
	m := &CostModel{
		h:     hypergraph.New(edges...),
		edges: edges,
		stats: make([]*RelationStats, len(edges)),
		sizes: make([]float64, len(edges)),
	}
	for i, e := range edges {
		st := cat[e.Name]
		if st != nil && len(st.Cols) != len(e.Vars) {
			st = nil
		}
		if st == nil && i < len(rels) && rels[i] != nil {
			st = Collect(rels[i])
		}
		if st == nil || len(st.Cols) != len(e.Vars) {
			return nil
		}
		m.stats[i] = st
		m.sizes[i] = math.Max(1, float64(st.Rows))
		if st.Rows == 0 {
			m.empty = true
		}
	}
	return m
}

// EstimateVars estimates the size of the join of all input relations
// projected to the given variable set, by the textbook chain formula:
// the product over touching atoms of their projected size (capped by
// the product of the projected columns' distinct counts), times a
// selectivity per shared variable. The per-variable selectivity is
// distinct-count based (keep the smallest side, divide by the rest);
// for a variable shared by exactly two atoms the columns' most frequent
// values refine it, crediting heavy×heavy matches explicitly — on
// skewed data this is where the estimate diverges from the uniform
// assumption and the optimizer earns its keep.
func (m *CostModel) EstimateVars(vars []string) float64 {
	if len(vars) == 0 {
		return 1
	}
	if m.empty {
		return 0
	}
	set := make(map[string]bool, len(vars))
	for _, v := range vars {
		set[v] = true
	}
	// occ[v] lists (edge, column) of every atom containing v within the
	// set; column is the first matching one when an atom repeats v.
	type colRef struct{ e, c int }
	occ := make(map[string][]colRef, len(set))
	est := 1.0
	touching := false
	for ei, e := range m.edges {
		proj := 1.0
		seen := make(map[string]bool, len(e.Vars))
		for ci, v := range e.Vars {
			if !set[v] || seen[v] {
				continue
			}
			seen[v] = true
			occ[v] = append(occ[v], colRef{e: ei, c: ci})
			proj *= math.Max(1, m.stats[ei].Cols[ci].Distinct)
		}
		if len(seen) == 0 {
			continue
		}
		touching = true
		if rows := float64(m.stats[ei].Rows); proj > rows {
			proj = rows
		}
		est *= proj
	}
	if !touching {
		return 1
	}
	// Deterministic variable iteration (the product is commutative, but
	// bit-stable estimates keep plan choices reproducible).
	shared := make([]string, 0, len(occ))
	for v := range occ {
		if len(occ[v]) >= 2 {
			shared = append(shared, v)
		}
	}
	sort.Strings(shared)
	for _, v := range shared {
		refs := occ[v]
		if len(refs) == 2 {
			est *= m.pairSelectivity(refs[0].e, refs[0].c, refs[1].e, refs[1].c)
			continue
		}
		// Distinct-count selectivity: keep the smallest domain, divide
		// by every other side's distinct count.
		dmin, prod := math.Inf(1), 1.0
		for _, r := range refs {
			d := math.Max(1, m.stats[r.e].Cols[r.c].Distinct)
			prod *= d
			if d < dmin {
				dmin = d
			}
		}
		est *= dmin / prod
	}
	return est
}

// pairSelectivity estimates the join selectivity of one variable shared
// by exactly two atoms. The expected match count is computed piecewise
// over each side's most frequent values (ColumnStats.Heavy) — heavy×heavy
// pairs exactly, heavy×residual at the residual mean frequency,
// residual×residual uniformly; with no heavy values on a side (an empty
// column) it falls back to the uniform 1/max(d1,d2).
func (m *CostModel) pairSelectivity(e1, c1, e2, c2 int) float64 {
	s1, s2 := &m.stats[e1].Cols[c1], &m.stats[e2].Cols[c2]
	r1, r2 := float64(m.stats[e1].Rows), float64(m.stats[e2].Rows)
	d1, d2 := math.Max(1, s1.Distinct), math.Max(1, s2.Distinct)
	if len(s1.Heavy) == 0 || len(s2.Heavy) == 0 {
		return 1 / math.Max(d1, d2)
	}
	h2 := make(map[int64]float64, len(s2.Heavy))
	heavySum2 := 0.0
	for _, hh := range s2.Heavy {
		h2[hh.Value] = float64(hh.Count)
		heavySum2 += float64(hh.Count)
	}
	heavySum1 := 0.0
	for _, hh := range s1.Heavy {
		heavySum1 += float64(hh.Count)
	}
	resid1 := math.Max(0, r1-heavySum1)
	resid2 := math.Max(0, r2-heavySum2)
	dResid1 := math.Max(1, d1-float64(len(s1.Heavy)))
	dResid2 := math.Max(1, d2-float64(len(s2.Heavy)))
	mean1 := resid1 / dResid1
	mean2 := resid2 / dResid2
	matches := 0.0
	for _, hh := range s1.Heavy {
		if c, ok := h2[hh.Value]; ok {
			matches += float64(hh.Count) * c
			delete(h2, hh.Value)
		} else {
			matches += float64(hh.Count) * mean2
		}
	}
	// The unmatched heavy values of side 2, summed in Heavy's order so
	// the estimate is bit-stable.
	for _, hh := range s2.Heavy {
		if c, ok := h2[hh.Value]; ok {
			matches += c * mean1
		}
	}
	matches += resid1 * resid2 / math.Max(dResid1, dResid2)
	sel := matches / (r1 * r2)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// BagCost estimates the cost of materializing one bag: the chain
// estimate of the join projected to the bag's variables, capped by the
// AGM worst-case bound for small bags. It implements
// hypergraph.BagCoster.
func (m *CostModel) BagCost(bag []string) float64 {
	est := m.EstimateVars(bag)
	if len(bag) <= maxAGMCapVars {
		if b, err := m.h.AGMBoundOf(bag, m.sizes); err == nil && b < est {
			est = b
		}
	}
	return est
}

// EstimateOutput estimates the full join's output cardinality.
func (m *CostModel) EstimateOutput() float64 {
	return m.EstimateVars(m.h.Vars())
}

// HeavyValues returns the heavy-hitter values recorded for variable x
// across the relations containing x, for use as skew hints by the
// parallel executor (wcoj.SkewHints): a value frequent in any base
// relation tends to own a disproportionate join subtree. A value
// qualifies when its exact count reaches rows/heavyK in some column of
// x. The result is sorted ascending and deduplicated; it is empty when
// no column of x has such a value.
func (m *CostModel) HeavyValues(x string) []int64 {
	var vals []int64
	for ei, e := range m.edges {
		for ci, v := range e.Vars {
			if v != x {
				continue
			}
			st := m.stats[ei]
			for _, hh := range st.Cols[ci].Heavy {
				if hh.Count*heavyK >= st.Rows {
					vals = append(vals, hh.Value)
				}
			}
		}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}
