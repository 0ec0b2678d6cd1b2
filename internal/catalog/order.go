package catalog

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// ChooseOrder picks a Generic-Join variable order for one bag's atoms:
// the order minimizing the summed size estimates of its prefixes — the
// intermediate relations Generic-Join effectively explores while
// extending one variable at a time. The estimates come from a throwaway
// cost model over exactly those atoms (statistics collected from the
// bag's actual — possibly filtered and projected — input relations). A
// prefix's estimate depends only on its variable *set*, so
// hypergraph.CheapestOrder searches the orders as a subset DP, each set
// estimated once: exactly up to its bound, by a beam over sets beyond.
// ChooseOrder has the signature the decomposition layer's
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
	size := make(map[hypergraph.VarSet]float64)
	order, _ := hypergraph.CheapestOrder(len(vars), false, func(placed hypergraph.VarSet, v int) float64 {
		prefix := placed.With(v)
		est, ok := size[prefix]
		if !ok {
			est = m.EstimateVars(prefix.Names(vars))
			size[prefix] = est
		}
		return est
	})
	names := make([]string, len(order))
	for i, v := range order {
		names[i] = vars[v]
	}
	return names, nil
}
