package decomp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// cycleReference materialises the l-cycle output with Generic-Join.
func cycleReference(rels []*relation.Relation) *relation.Relation {
	l := len(rels)
	atoms := make([]wcoj.Atom, l)
	for i, r := range rels {
		atoms[i] = wcoj.Atom{Rel: r, Vars: []string{
			fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", (i+1)%l)}}
	}
	out, _, err := wcoj.Materialize(atoms, CycleAttrs(l), sum)
	if err != nil {
		panic(err)
	}
	out.SortByWeight()
	return out
}

func checkCycleAgainstReference(t *testing.T, rels []*relation.Relation, v core.Variant) {
	t.Helper()
	want := cycleReference(rels)
	p, err := PrepareCycleSingleTree(rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	got := core.Collect(runPlan(t, p, v), 0)
	if len(got) != want.Len() {
		t.Fatalf("l=%d: enumerated %d, reference %d", len(rels), len(got), want.Len())
	}
	gotRel := relation.New("got", CycleAttrs(len(rels))...)
	for i, r := range got {
		if math.Abs(r.Weight-want.Weights[i]) > 1e-9 {
			t.Fatalf("rank %d: weight %g vs %g", i, r.Weight, want.Weights[i])
		}
		gotRel.AddTuple(r.Tuple, 0)
	}
	wantRel := relation.New("want", CycleAttrs(len(rels))...)
	for _, tp := range want.Tuples {
		wantRel.AddTuple(tp, 0)
	}
	if !gotRel.EqualAsSet(wantRel) {
		t.Fatal("tuple multisets differ")
	}
}

func TestCycleSingleTreeLengths(t *testing.T) {
	for _, l := range []int{3, 4, 5, 6, 7} {
		g := workload.RandomGraph(10, 50, workload.UniformWeights(), uint64(l))
		rels := make([]*relation.Relation, l)
		for i := range rels {
			rels[i] = g.Edges
		}
		checkCycleAgainstReference(t, rels, core.Lazy)
	}
}

func TestCycleSingleTreeDistinctRelations(t *testing.T) {
	rels := make([]*relation.Relation, 5)
	for i := range rels {
		g := workload.RandomGraph(8, 40, workload.UniformWeights(), uint64(20+i))
		rels[i] = g.Edges
	}
	checkCycleAgainstReference(t, rels, core.Rec)
}

func TestCycleSingleTreeValidation(t *testing.T) {
	g := workload.RandomGraph(5, 10, workload.UniformWeights(), 1)
	if _, err := PrepareCycleSingleTree([]*relation.Relation{g.Edges, g.Edges}, sum); err == nil {
		t.Error("l=2 should be rejected")
	}
	bad := relation.New("bad", "X", "Y", "Z")
	if _, err := PrepareCycleSingleTree([]*relation.Relation{g.Edges, g.Edges, bad}, sum); err == nil {
		t.Error("arity-3 relation should be rejected")
	}
}

func TestCycleSingleTreeEmptyOutput(t *testing.T) {
	e := relation.New("E", "src", "dst")
	e.Add(1, 2)
	e.Add(2, 3) // no cycle
	rels := []*relation.Relation{e, e, e, e, e}
	p, err := PrepareCycleSingleTree(rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := runPlan(t, p, core.Lazy).Next(); ok {
		t.Error("acyclic edge set should yield no 5-cycles")
	}
}

// Property: the fan decomposition matches GJ for random C5 instances.
func TestCycleFanMatchesGJProperty(t *testing.T) {
	f := func(seed uint16) bool {
		g := workload.RandomGraph(7, 30, workload.UniformWeights(), uint64(seed))
		rels := make([]*relation.Relation, 5)
		for i := range rels {
			rels[i] = g.Edges
		}
		want := cycleReference(rels)
		p, err := PrepareCycleSingleTree(rels, sum)
		if err != nil {
			return false
		}
		got := core.Collect(runPlan(t, p, core.Take2), 0)
		if len(got) != want.Len() {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Weight-want.Weights[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestFourCycleFanEqualsSpecialised(t *testing.T) {
	g := workload.RandomGraph(10, 80, workload.UniformWeights(), 9)
	rels4 := [4]*relation.Relation{g.Edges, g.Edges, g.Edges, g.Edges}
	itSub, _, err := FourCycleSubmodular(context.Background(), rels4, sum, core.Lazy)
	if err != nil {
		t.Fatal(err)
	}
	fan, err := PrepareCycleSingleTree(rels4[:], sum)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Collect(itSub, 0)
	b := core.Collect(runPlan(t, fan, core.Lazy), 0)
	if len(a) != len(b) {
		t.Fatalf("submodular %d vs fan %d results", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].Weight-b[i].Weight) > 1e-9 {
			t.Fatalf("rank %d weight mismatch", i)
		}
	}
}

// bagPrices is a BagCoster that prices the bag over all of a cycle's
// variables at one and every other bag at another.
type bagPrices struct {
	l          int
	whole, fan float64
}

func (p bagPrices) BagCost(bag []string) float64 {
	if len(bag) == p.l {
		return p.whole
	}
	return p.fan
}

// TestCostedCycleTie: a long cycle whose one bag costs exactly what the
// fan's bags cost together keeps the fan; a clearly cheaper one bag wins
// and has its Generic-Join order pinned to the walk.
func TestCostedCycleTie(t *testing.T) {
	for _, c := range []struct {
		l        int
		fan, one string
	}{
		{5, "{A0,A1,A2} {A0,A2,A3} {A0,A3,A4} (width 2)", "{A0,A1,A2,A3,A4} (width 2.5)"},
		{6, "{A0,A1,A2} {A0,A2,A3} {A0,A3,A4} {A0,A4,A5} (width 2)", "{A0,A1,A2,A3,A4,A5} (width 3)"},
	} {
		attrs := CycleAttrs(c.l)
		edges, order := make([]hypergraph.Edge, c.l), make([]int, c.l)
		for i, a := range attrs {
			edges[i] = hypergraph.E(fmt.Sprintf("R%d", i+1), a, attrs[(i+1)%c.l])
			order[i] = i
		}
		fanCost := 10 * float64(c.l-2)
		s, err := CycleShape(edges, order, attrs, bagPrices{l: c.l, whole: fanCost, fan: 10})
		if err != nil {
			t.Fatal(err)
		}
		if s.Decomposition != c.fan || s.trees[0].pin != nil || len(s.EstBagSizes) != c.l-2 || s.EstBagSizes[0] != 10 {
			t.Errorf("c%d tie: %q pin %v est %v, want the fan %q", c.l, s.Decomposition, s.trees[0].pin, s.EstBagSizes, c.fan)
		}
		s, err = CycleShape(edges, order, attrs, bagPrices{l: c.l, whole: fanCost / 2, fan: 10})
		if err != nil {
			t.Fatal(err)
		}
		if s.Decomposition != c.one || !slices.Equal(s.trees[0].pin, attrs) || !slices.Equal(s.EstBagSizes, []float64{fanCost / 2}) {
			t.Errorf("c%d cheap bag: %q pin %v est %v, want %q pinned to the walk", c.l, s.Decomposition, s.trees[0].pin, s.EstBagSizes, c.one)
		}
		if s.Kind != "cycle" {
			t.Errorf("c%d cheap bag: kind %q", c.l, s.Kind)
		}
	}
}
