package catalog

import (
	"fmt"
	"math"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// maxOrderDPVars bounds the exact subset-DP variable-order search (2^n
// subset estimates); larger bags use hypergraph.BeamOrders.
const maxOrderDPVars = 12

// ChooseOrder picks a Generic-Join variable order for one bag's atoms:
// the order minimizing the summed size estimates of its prefixes — the
// intermediate relations Generic-Join effectively explores while
// extending one variable at a time. The estimates come from a throwaway
// cost model over exactly those atoms (statistics collected from the
// bag's actual — possibly filtered and projected — input relations). Up
// to maxOrderDPVars variables the minimum is exact (Selinger-style
// subset DP, exploiting that a prefix's estimated size depends only on
// its variable *set*); beyond that hypergraph.BeamOrders approximates
// it. ChooseOrder has the signature the decomposition layer's
// WithOrderChooser hook expects; an error (e.g. an atom whose relation
// is missing) makes the caller fall back to the structural
// wcoj.SuggestOrder heuristic.
func ChooseOrder(atoms []wcoj.Atom) ([]string, error) {
	edges := make([]hypergraph.Edge, len(atoms))
	rels := make([]*relation.Relation, len(atoms))
	for i, a := range atoms {
		edges[i] = hypergraph.Edge{Name: fmt.Sprintf("a%d", i), Vars: a.Vars}
		rels[i] = a.Rel
	}
	m := NewCostModel(edges, rels, nil)
	if m == nil {
		return nil, fmt.Errorf("catalog: no statistics available for bag atoms")
	}
	vars := m.h.Vars()
	switch {
	case len(vars) <= 1:
		return vars, nil
	case len(vars) <= maxOrderDPVars:
		return m.orderDP(vars), nil
	}
	// A prefix's estimate depends on nothing but its variables: the
	// beam's state is empty.
	return hypergraph.BeamOrders(vars, struct{}{},
		func(_ struct{}, prefix []string) float64 { return m.EstimateVars(prefix) },
		func(s struct{}, _ []string) struct{} { return s })[0], nil
}

// orderDP returns the order of vars of least summed prefix estimates.
func (m *CostModel) orderDP(vars []string) []string {
	n := len(vars)
	full := 1<<n - 1
	// size[S] is the estimated size of the join projected to subset S —
	// order-independent, so each subset is estimated once.
	size := make([]float64, full+1)
	buf := make([]string, 0, n)
	for S := 1; S <= full; S++ {
		buf = buf[:0]
		for v := 0; v < n; v++ {
			if S&(1<<v) != 0 {
				buf = append(buf, vars[v])
			}
		}
		size[S] = m.EstimateVars(buf)
	}
	// dp[S] = size[S] + min over last-added v of dp[S \ {v}]; choice
	// records the arg-min (smallest index on ties → deterministic).
	dp := make([]float64, full+1)
	choice := make([]int, full+1)
	for S := 1; S <= full; S++ {
		best, bestV := math.Inf(1), -1
		for v := 0; v < n; v++ {
			if S&(1<<v) == 0 {
				continue
			}
			if c := dp[S^1<<v]; c < best {
				best, bestV = c, v
			}
		}
		dp[S] = best + size[S]
		choice[S] = bestV
	}
	order := make([]string, n)
	for S, i := full, n-1; S != 0; i-- {
		v := choice[S]
		order[i] = vars[v]
		S ^= 1 << v
	}
	return order
}
