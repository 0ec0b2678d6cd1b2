package decomp

import (
	"context"

	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

var sum = ranking.SumCost

// fourCycleReference materialises the 4-cycle output with Generic-Join
// (an independent implementation) and returns it sorted by weight.
func fourCycleReference(rels [4]*relation.Relation, agg ranking.Aggregate) *relation.Relation {
	atoms := []wcoj.Atom{
		{Rel: rels[0], Vars: []string{"A", "B"}},
		{Rel: rels[1], Vars: []string{"B", "C"}},
		{Rel: rels[2], Vars: []string{"C", "D"}},
		{Rel: rels[3], Vars: []string{"D", "A"}},
	}
	rows, _, err := wcoj.Materialize(atoms, FourCycleAttrs, agg)
	if err != nil {
		panic(err)
	}
	out := rows.Relation("GJ", FourCycleAttrs)
	out.SortByWeight()
	return out
}

func fourRels(g *workload.Graph) [4]*relation.Relation {
	var rels [4]*relation.Relation
	for i := range rels {
		rels[i] = g.Edges
	}
	return rels
}

func checkAgainstReference(t *testing.T, rels [4]*relation.Relation,
	mk func() (core.Iterator, *Stats, error)) *Stats {
	t.Helper()
	want := fourCycleReference(rels, sum)
	it, st, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	got := core.Collect(it, 0)
	if len(got) != want.Len() {
		t.Fatalf("enumerated %d results, reference has %d", len(got), want.Len())
	}
	gotRel := relation.New("got", FourCycleAttrs...)
	for i, r := range got {
		if math.Abs(r.Weight-want.Weights[i]) > 1e-9 {
			t.Fatalf("rank %d: weight %g, reference %g", i, r.Weight, want.Weights[i])
		}
		if i > 0 && r.Weight < got[i-1].Weight {
			t.Fatalf("weights not sorted at rank %d", i)
		}
		gotRel.AddTuple(r.Tuple, 0)
	}
	wantRel := relation.New("want", FourCycleAttrs...)
	for _, tp := range want.Tuples {
		wantRel.AddTuple(tp, 0)
	}
	if !gotRel.EqualAsSet(wantRel) {
		t.Fatal("tuple multisets differ from reference")
	}
	return st
}

func TestSubmodularMatchesReferenceRandom(t *testing.T) {
	g := workload.RandomGraph(12, 100, workload.UniformWeights(), 1)
	checkAgainstReference(t, fourRels(g), func() (core.Iterator, *Stats, error) {
		return FourCycleSubmodular(context.Background(), fourRels(g), sum, core.Lazy)
	})
}

func TestSingleTreeMatchesReferenceRandom(t *testing.T) {
	g := workload.RandomGraph(12, 100, workload.UniformWeights(), 2)
	checkAgainstReference(t, fourRels(g), func() (core.Iterator, *Stats, error) {
		return FourCycleSingleTree(context.Background(), fourRels(g), sum, core.Lazy)
	})
}

func TestSubmodularMatchesReferenceSkewed(t *testing.T) {
	// Skewed graphs produce heavy values, exercising all three trees.
	g := workload.SkewedGraph(30, 300, 1.4, workload.UniformWeights(), 3)
	st := checkAgainstReference(t, fourRels(g), func() (core.Iterator, *Stats, error) {
		return FourCycleSubmodular(context.Background(), fourRels(g), sum, core.Lazy)
	})
	if st.HeavyB == 0 {
		t.Log("warning: no heavy values; skew too mild to exercise T2/T3")
	}
}

func TestSubmodularDistinctRelations(t *testing.T) {
	// Four genuinely different relations (not a self-join).
	mk := func(seed uint64) *relation.Relation {
		g := workload.RandomGraph(10, 60, workload.UniformWeights(), seed)
		return g.Edges
	}
	rels := [4]*relation.Relation{mk(10), mk(11), mk(12), mk(13)}
	checkAgainstReference(t, rels, func() (core.Iterator, *Stats, error) {
		return FourCycleSubmodular(context.Background(), rels, sum, core.Lazy)
	})
}

// Property: submodular and single-tree agree on random instances across
// variants.
func TestSubmodularEqualsSingleTreeProperty(t *testing.T) {
	f := func(seed uint16, vIdx uint8) bool {
		variants := []core.Variant{core.Lazy, core.Eager, core.Rec, core.Take2}
		v := variants[int(vIdx)%len(variants)]
		g := workload.RandomGraph(8, 50, workload.UniformWeights(), uint64(seed))
		rels := fourRels(g)
		it1, _, err1 := FourCycleSubmodular(context.Background(), rels, sum, v)
		it2, _, err2 := FourCycleSingleTree(context.Background(), rels, sum, v)
		if err1 != nil || err2 != nil {
			return false
		}
		a := core.Collect(it1, 0)
		b := core.Collect(it2, 0)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Abs(a[i].Weight-b[i].Weight) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The §3 separation: on the hub instance the single-tree plan
// materialises Θ(n²) tuples while the submodular plan materialises
// almost nothing (the output is empty).
func TestHubInstanceSeparation(t *testing.T) {
	n := 400
	inst := workload.FourCycleHub(n, workload.UniformWeights(), 1)
	var rels [4]*relation.Relation
	copy(rels[:], inst.Rels)

	itSub, stSub, err := FourCycleSubmodular(context.Background(), rels, sum, core.Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := itSub.Next(); ok {
		t.Fatal("hub instance should have no 4-cycles")
	}
	itSingle, stSingle, err := FourCycleSingleTree(context.Background(), rels, sum, core.Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := itSingle.Next(); ok {
		t.Fatal("hub instance should have no 4-cycles (single tree)")
	}
	quad := (n / 2) * (n / 2)
	if stSingle.TotalMaterialized < quad {
		t.Errorf("single-tree materialised %d, expected >= %d", stSingle.TotalMaterialized, quad)
	}
	if stSub.TotalMaterialized > n {
		t.Errorf("submodular materialised %d, expected O(n)=%d on the hub instance", stSub.TotalMaterialized, n)
	}
}

// Submodular bags must respect the n^1.5 bound with slack even on skew.
func TestSubmodularBagBound(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := workload.SkewedGraph(80, 2000, 1.5, workload.UniformWeights(), seed)
		rels := fourRels(g)
		_, st, err := FourCycleSubmodular(context.Background(), rels, sum, core.Lazy)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(g.Edges.Len())
		bound := int(4 * n * math.Sqrt(n))
		for ti, bs := range st.BagSizes {
			for _, n := range bs {
				if n > bound {
					t.Errorf("seed %d tree %d: bag sizes %v exceed 4·n^1.5 = %d", seed, ti, bs, bound)
				}
			}
		}
	}
}

func TestTriangleMatchesReference(t *testing.T) {
	g := workload.RandomGraph(15, 120, workload.UniformWeights(), 5)
	rels := [3]*relation.Relation{g.Edges, g.Edges, g.Edges}
	p, err := PrepareTriangle(rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats
	got := core.Collect(runPlan(t, p, core.Lazy), 0)

	atoms := []wcoj.Atom{
		{Rel: g.Edges, Vars: []string{"A", "B"}},
		{Rel: g.Edges, Vars: []string{"B", "C"}},
		{Rel: g.Edges, Vars: []string{"C", "A"}},
	}
	rows, _, err := wcoj.Materialize(atoms, TriangleAttrs, sum)
	if err != nil {
		t.Fatal(err)
	}
	want := rows.Relation("GJ", TriangleAttrs)
	want.SortByWeight()
	if len(got) != want.Len() {
		t.Fatalf("triangles: %d vs reference %d", len(got), want.Len())
	}
	for i, r := range got {
		if math.Abs(r.Weight-want.Weights[i]) > 1e-9 {
			t.Fatalf("rank %d: %g vs %g", i, r.Weight, want.Weights[i])
		}
	}
	if st.TotalMaterialized != want.Len() {
		t.Errorf("stats materialised %d, want %d", st.TotalMaterialized, want.Len())
	}
}

func TestTriangleEmpty(t *testing.T) {
	e := relation.New("E", "src", "dst")
	e.Add(1, 2)
	e.Add(2, 3) // no cycle back
	p, err := PrepareTriangle([3]*relation.Relation{e, e, e}, sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := runPlan(t, p, core.Lazy).Next(); ok {
		t.Fatal("no triangles expected")
	}
}

// Top-k early termination: asking for 5 lightest 4-cycles must not
// enumerate everything (functional check: results equal the reference
// prefix).
func TestTopKPrefix(t *testing.T) {
	g := workload.RandomGraph(15, 200, workload.UniformWeights(), 7)
	rels := fourRels(g)
	want := fourCycleReference(rels, sum)
	if want.Len() < 10 {
		t.Skip("instance too small")
	}
	it, _, err := FourCycleSubmodular(context.Background(), rels, sum, core.Lazy)
	if err != nil {
		t.Fatal(err)
	}
	got := core.Collect(it, 5)
	for i := range got {
		if math.Abs(got[i].Weight-want.Weights[i]) > 1e-9 {
			t.Fatalf("top-%d weight %g, reference %g", i+1, got[i].Weight, want.Weights[i])
		}
	}
}
