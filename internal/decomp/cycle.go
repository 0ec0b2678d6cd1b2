package decomp

import (
	"fmt"

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

// PrepareCycleSingleTree compiles the l-cycle query
// R1(A0,A1) ⋈ R2(A1,A2) ⋈ ... ⋈ Rl(A_{l-1},A0) with the textbook
// fractional-hypertree-width-2 "fan" decomposition: l−2 bags
// B_i(A0, A_i, A_{i+1}), i = 1..l−2, arranged in a path join tree.
//
//	B_1     = R1 ⋈ R2                      (covers R1, R2)
//	B_i     = R_{i+1} × π_{A0}(R1)         (middle bags, 2 ≤ i ≤ l−3)
//	B_{l-2} = R_{l-1} ⋈ R_l                (covers R_{l-1}, R_l)
//
// Every bag is O(n·d) ≤ O(n²) where d is the number of distinct A0
// values — the Θ(n²) worst case being exactly why §3 calls single-tree
// plans suboptimal for cycles (submodular width is lower). For l = 3
// prefer PrepareTriangle and for l = 4 PrepareFourCycleSubmodular; this
// plan still accepts those shapes for comparison experiments. Output
// tuples are ordered (A0,...,A_{l-1}).
func PrepareCycleSingleTree(rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	cfg := newPrepCfg(opts)
	l := len(rels)
	if l < 3 {
		return nil, fmt.Errorf("decomp: cycle needs at least 3 relations, got %d", l)
	}
	for i, r := range rels {
		if r.Arity() != 2 {
			return nil, fmt.Errorf("decomp: cycle relation %d has arity %d, want 2", i, r.Arity())
		}
	}
	named := make([]*relation.Relation, l)
	for i, r := range rels {
		named[i] = rename(r, fmt.Sprintf("R%d", i+1), fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", (i+1)%l))
	}
	if l == 3 {
		// Two bags: B1 = R1⋈R2 over {A0,A1,A2}, B2 = R3 over {A2,A0}.
		b1, err := joinBags("B1", named[0], named[1], []string{"A0", "A1", "A2"}, agg)
		if err != nil {
			return nil, err
		}
		tp, _, err := prepareTree(cfg, []*relation.Relation{b1, named[2]}, agg, CycleAttrs(3), nil, nil)
		if err != nil {
			return nil, err
		}
		st := &Stats{BagSizes: [][]int{{b1.Len(), named[2].Len()}}, TotalMaterialized: b1.Len()}
		return &Plan{Stats: st, agg: agg, trees: []*treePlan{tp}}, nil
	}

	// The l−2 fan bags are mutually independent: B1 and B_{l-2} are hash
	// joins of adjacent cycle relations, and each middle bag extends one
	// relation by the distinct A0 values. One task per bag.
	tasks := make([]func() (*relation.Relation, error), 0, l-2)
	tasks = append(tasks, func() (*relation.Relation, error) {
		return joinBags("B1", named[0], named[1], []string{"A0", "A1", "A2"}, agg)
	})
	if l > 4 {
		// Distinct A0 values (from R1's first column), used to extend the
		// middle bags. Weight contribution is the aggregate identity so
		// each input tuple's weight still counts exactly once.
		a0 := distinctValues(named[0], "A0")
		for i := 2; i <= l-3; i++ {
			tasks = append(tasks, func() (*relation.Relation, error) {
				bag := relation.New(fmt.Sprintf("B%d", i),
					"A0", fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1))
				src := named[i] // R_{i+1}(A_i, A_{i+1})
				for ti, tp := range src.Tuples {
					for _, v0 := range a0 {
						bag.AddTuple(relation.Tuple{v0, tp[0], tp[1]}, src.Weights[ti])
					}
				}
				return bag, nil
			})
		}
	}
	tasks = append(tasks, func() (*relation.Relation, error) {
		return joinBags(fmt.Sprintf("B%d", l-2), named[l-2], named[l-1],
			[]string{"A0", fmt.Sprintf("A%d", l-2), fmt.Sprintf("A%d", l-1)}, agg)
	})
	bags, err := buildBags(cfg, tasks...)
	if err != nil {
		return nil, err
	}

	tp, _, err := prepareTree(cfg, bags, agg, CycleAttrs(l), nil, nil)
	if err != nil {
		return nil, err
	}
	return &Plan{Stats: singleTreeStats(bags), agg: agg, trees: []*treePlan{tp}}, nil
}

// distinctValues returns the sorted distinct values of one attribute.
func distinctValues(r *relation.Relation, attr string) []relation.Value {
	c := r.AttrIndex(attr)
	seen := make(map[relation.Value]bool)
	var out []relation.Value
	for _, t := range r.Tuples {
		if !seen[t[c]] {
			seen[t[c]] = true
			out = append(out, t[c])
		}
	}
	return out
}
