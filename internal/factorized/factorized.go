// Package factorized implements factorized (d-)representations of join
// results — the Part 2 topic of the tutorial ("factorised databases aim
// to reduce query complexity by cleverly representing (intermediate)
// results in a factorised format", Olteanu & Závodný). A join result
// set is stored as a DAG of union and product nodes over tuple
// singletons: unions range over the tuples of one candidate group,
// products combine a tuple with its children's sub-results, and
// sharing (the "d" in d-representation) arises because distinct parent
// tuples with the same join key point at the same child union.
//
// For tree-shaped queries the representation has size O(Σ|R_i|)
// regardless of the flat output size, which can be exponentially larger
// — the gap package tests and experiment E15 measure.
package factorized

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/yannakakis"
)

// DRep is a factorized representation of an acyclic query's result.
type DRep struct {
	root *unionNode
	// OutAttrs is the schema of the flat result: query variables in
	// first-appearance order over the tree's preorder.
	OutAttrs []string
}

// unionNode is a union over the tuples of one candidate group; each
// member is implicitly a product of its singleton with the child unions
// selected by its join keys.
type unionNode struct {
	rows []int32
	// childUnions[i][ci] is the union for rows[i]'s ci-th child.
	childUnions [][]*unionNode
	count       int // memoized result count of this sub-DAG
}

// Build constructs the d-representation of q's result: full reduction,
// then one pass creating shared union nodes per (tree node, join key).
func Build(q *yannakakis.Query) (*DRep, error) {
	red := q.FullReduce()
	t := q.Tree
	n := len(red)
	// groups[u] groups u's rows by the key they share with u's parent
	// (the root, which has none, is one group holding every row);
	// keyCols[u][ci] are u's columns of the key shared with its ci-th child.
	groups := make([]*relation.Index, n)
	groups[t.Root] = relation.MustIndex(red[t.Root])
	keyCols := make([][][]int, n)
	for u := 0; u < n; u++ {
		keyCols[u] = make([][]int, len(t.Children[u]))
		for ci, c := range t.Children[u] {
			// On an edge that shares nothing the key is empty: c is
			// one group, one union every row of u shares.
			shared := red[u].SharedAttrs(red[c])
			var err error
			if keyCols[u][ci], err = red[u].AttrIndexes(shared); err != nil {
				return nil, err
			}
			if groups[c], err = relation.NewIndex(red[c], shared...); err != nil {
				return nil, err
			}
		}
	}
	d := &DRep{}

	// One union per (tree node, group), built bottom-up (reverse preorder
	// ensures children exist).
	unions := make([][]*unionNode, n)
	for oi := len(t.Order) - 1; oi >= 0; oi-- {
		u := t.Order[oi]
		unions[u] = make([]*unionNode, groups[u].Keys())
		for g := range unions[u] {
			rows := groups[u].Rows(g)
			un := &unionNode{rows: rows, count: -1}
			un.childUnions = make([][]*unionNode, len(rows))
			for i, row := range rows {
				cus := make([]*unionNode, len(t.Children[u]))
				for ci, c := range t.Children[u] {
					cg := groups[c].FindBy(red[u].Tuples[row], keyCols[u][ci])
					if cg < 0 {
						return nil, fmt.Errorf("factorized: dangling tuple survived reduction at node %d", u)
					}
					cus[ci] = unions[c][cg]
				}
				un.childUnions[i] = cus
			}
			unions[u][g] = un
		}
	}
	if root := unions[t.Root]; len(root) > 0 {
		d.root = root[0]
	}

	// Output schema (first appearance over preorder).
	seen := make(map[string]bool)
	for _, u := range t.Order {
		for _, v := range red[u].Attrs {
			if !seen[v] {
				seen[v] = true
				d.OutAttrs = append(d.OutAttrs, v)
			}
		}
	}
	return d, nil
}

// Count returns the number of flat results, computed over the DAG with
// memoization (each union counted once).
func (d *DRep) Count() int {
	if d.root == nil {
		return 0
	}
	return d.countUnion(d.root)
}

func (d *DRep) countUnion(u *unionNode) int {
	if u.count >= 0 {
		return u.count
	}
	total := 0
	for i := range u.rows {
		c := 1
		for _, cu := range u.childUnions[i] {
			c *= d.countUnion(cu)
		}
		total += c
	}
	u.count = total
	return total
}

// Singletons counts the tuple singletons of the representation — its
// size in the factorized-database sense. Shared sub-DAGs count once.
func (d *DRep) Singletons() int {
	seen := make(map[*unionNode]bool)
	total := 0
	var visit func(*unionNode)
	visit = func(u *unionNode) {
		if seen[u] {
			return
		}
		seen[u] = true
		total += len(u.rows)
		for _, cus := range u.childUnions {
			for _, cu := range cus {
				visit(cu)
			}
		}
	}
	if d.root != nil {
		visit(d.root)
	}
	return total
}

// FlatCells returns the number of value cells a flat materialisation
// would need: Count() × output arity.
func (d *DRep) FlatCells() int { return d.Count() * len(d.OutAttrs) }

// CompressionRatio is FlatCells / Singletons (≥ 1 whenever results
// exist; grows with sharing).
func (d *DRep) CompressionRatio() float64 {
	s := d.Singletons()
	if s == 0 {
		return 1
	}
	return float64(d.FlatCells()) / float64(s)
}
