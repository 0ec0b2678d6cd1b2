package dp_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/yannakakis"
)

// TestBuildEnumeratesCartesianTreeEdge: R(A,B) and S(C,D) share no
// variable, so GYO links them by a tree edge on the empty key. Build
// keeps it as an ordinary edge — S is one group, which every row of R
// selects — and every variant enumerates the product in rank order.
// Emptying S empties the query.
func TestBuildEnumeratesCartesianTreeEdge(t *testing.T) {
	h := hypergraph.New(hypergraph.E("R", "A", "B"), hypergraph.E("S", "C", "D"))
	r := relation.New("R", "X", "Y")
	r.AddWeighted(1, 1, 2)
	r.AddWeighted(2, 1, 3)
	r.AddWeighted(4, 2, 2)
	s := relation.New("S", "X", "Y")
	s.AddWeighted(10, 5, 6)
	s.AddWeighted(20, 7, 8)
	s.AddWeighted(0.5, 5, 5)
	q, err := yannakakis.NewQuery(h, []*relation.Relation{r, s})
	if err != nil {
		t.Fatal(err)
	}
	tdp, err := dp.Build(q, ranking.SumCost)
	if err != nil {
		t.Fatal(err)
	}
	if g := tdp.Nodes[1].Groups; g.Len() != 1 || len(g.Rows(0)) != 3 {
		t.Fatalf("the child's groups are %v, want one of all 3 rows", g)
	}
	want := []float64{1.5, 2.5, 4.5, 11, 12, 14, 21, 22, 24}
	for _, v := range core.Variants() {
		it, err := core.New(context.Background(), tdp, v)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		tuples := map[string]bool{}
		for _, res := range core.Collect(it, 0) {
			got = append(got, res.Weight)
			tuples[fmt.Sprint(res.Tuple)] = true
		}
		if !slices.Equal(got, want) || len(tuples) != len(want) {
			t.Errorf("%s: weights %v over %d distinct tuples, want %v", v, got, len(tuples), want)
		}
	}

	empty, err := yannakakis.NewQuery(h, []*relation.Relation{r, relation.New("S", "X", "Y")})
	if err != nil {
		t.Fatal(err)
	}
	if tdp, err := dp.Build(empty, ranking.SumCost); err != nil || !tdp.Empty() {
		t.Errorf("with S empty: Build = %v; want an empty T-DP", err)
	}
}
