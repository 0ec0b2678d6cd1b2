package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

var sum = ranking.SumCost

func buildTDP(t testing.TB, inst *workload.Instance, agg ranking.Aggregate) *dp.TDP {
	t.Helper()
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		t.Fatal(err)
	}
	tdp, err := dp.Build(q, agg)
	if err != nil {
		t.Fatal(err)
	}
	return tdp
}

// tinyPath builds a hand-checkable 2-path instance.
//
//	R1: (1,10) w=1, (1,11) w=5, (2,10) w=2
//	R2: (10,100) w=10, (10,101) w=1, (11,100) w=0
//
// Join results (A0,A1,A2) with sum weights:
//
//	(1,10,101): 2   (2,10,101): 3  (1,11,100): 5
//	(1,10,100): 11  (2,10,100): 12
func tinyPath() *workload.Instance {
	r1 := relation.New("R1", "X", "Y")
	r1.AddWeighted(1, 1, 10)
	r1.AddWeighted(5, 1, 11)
	r1.AddWeighted(2, 2, 10)
	r2 := relation.New("R2", "X", "Y")
	r2.AddWeighted(10, 10, 100)
	r2.AddWeighted(1, 10, 101)
	r2.AddWeighted(0, 11, 100)
	return &workload.Instance{H: hypergraph.Path(2), Rels: []*relation.Relation{r1, r2}}
}

func TestAllVariantsTinyPathExactOrder(t *testing.T) {
	wantWeights := []float64{2, 3, 5, 11, 12}
	for _, v := range Variants() {
		tdp := buildTDP(t, tinyPath(), sum)
		it, err := New(context.Background(), tdp, v)
		if err != nil {
			t.Fatal(err)
		}
		got := Collect(it, 0)
		if len(got) != len(wantWeights) {
			t.Fatalf("%s: %d results, want %d", v, len(got), len(wantWeights))
		}
		for i, r := range got {
			if r.Weight != wantWeights[i] {
				t.Errorf("%s: rank %d weight = %g, want %g", v, i, r.Weight, wantWeights[i])
			}
		}
		// Spot-check the top tuple: (A0,A1,A2) = (1,10,101). The output
		// attribute order depends on where GYO roots the tree, so look up
		// positions by name.
		pos := map[string]int{}
		for i, a := range tdp.OutAttrs {
			pos[a] = i
		}
		top := got[0].Tuple
		if top[pos["A0"]] != 1 || top[pos["A1"]] != 10 || top[pos["A2"]] != 101 {
			t.Errorf("%s: top tuple = %v (attrs %v), want A0=1 A1=10 A2=101", v, top, tdp.OutAttrs)
		}
	}
}

func TestEmptyQueryAllVariants(t *testing.T) {
	r1 := relation.New("R1", "X", "Y")
	r1.Add(1, 2)
	r2 := relation.New("R2", "X", "Y")
	r2.Add(3, 4) // no join partner
	inst := &workload.Instance{H: hypergraph.Path(2), Rels: []*relation.Relation{r1, r2}}
	for _, v := range Variants() {
		tdp := buildTDP(t, inst, sum)
		it, err := New(context.Background(), tdp, v)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := it.Next(); ok {
			t.Errorf("%s: empty query yielded a result", v)
		}
		if _, ok := it.Next(); ok {
			t.Errorf("%s: Next after exhaustion yielded a result", v)
		}
	}
}

// checkVariantAgainstBatch enumerates fully with the variant and checks
// (a) weights are non-decreasing, (b) the multiset of (tuple, weight)
// matches Batch, (c) per-result weights match the solution's true weight.
func checkVariantAgainstBatch(t *testing.T, inst *workload.Instance, v Variant, agg ranking.Aggregate) {
	t.Helper()
	tdp := buildTDP(t, inst, agg)
	ref := Collect(NewBatch(context.Background(), tdp), 0)

	tdp2 := buildTDP(t, inst, agg)
	it, err := New(context.Background(), tdp2, v)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(it, 0)
	if len(got) != len(ref) {
		t.Fatalf("%s: %d results, batch has %d", v, len(got), len(ref))
	}
	for i := 1; i < len(got); i++ {
		if agg.Less(got[i].Weight, got[i-1].Weight) {
			t.Fatalf("%s: weights not sorted at %d: %g then %g", v, i-1, got[i-1].Weight, got[i].Weight)
		}
	}
	// Weight multisets must match exactly.
	for i := range got {
		if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
			t.Fatalf("%s: rank %d weight = %g, batch %g", v, i, got[i].Weight, ref[i].Weight)
		}
	}
	// Tuple multisets must match (order may differ among ties): compare
	// as relations.
	ra := relation.New("a", tdp.OutAttrs...)
	rb := relation.New("b", tdp.OutAttrs...)
	for i := range got {
		ra.AddTuple(got[i].Tuple, round9(got[i].Weight))
		rb.AddTuple(ref[i].Tuple, round9(ref[i].Weight))
	}
	if !ra.EqualAsSet(rb) {
		t.Fatalf("%s: result multiset differs from batch", v)
	}
}

func round9(w float64) float64 { return math.Round(w*1e9) / 1e9 }

func TestVariantsMatchBatchOnRandomPaths(t *testing.T) {
	for _, l := range []int{2, 3, 4} {
		inst := workload.Path(l, 60, 8, workload.UniformWeights(), uint64(l)*7)
		for _, v := range Variants() {
			if v == Batch {
				continue
			}
			checkVariantAgainstBatch(t, inst, v, sum)
		}
	}
}

func TestVariantsMatchBatchOnRandomStars(t *testing.T) {
	for _, l := range []int{2, 3, 4} {
		inst := workload.Star(l, 40, 6, workload.UniformWeights(), uint64(l)*13)
		for _, v := range Variants() {
			if v == Batch {
				continue
			}
			checkVariantAgainstBatch(t, inst, v, sum)
		}
	}
}

// A bushy tree: R1(A,B) with children R2(B,C), R3(B,D); R2 has child
// R4(C,E) — exercises multi-child nodes with grandchildren.
func bushyInstance(seed uint64) *workload.Instance {
	h := hypergraph.New(
		hypergraph.E("R1", "A", "B"),
		hypergraph.E("R2", "B", "C"),
		hypergraph.E("R3", "B", "D"),
		hypergraph.E("R4", "C", "E"),
	)
	rng := workload.NewRand(seed)
	mk := func(name string, a1, a2 string) *relation.Relation {
		r := relation.New(name, a1, a2)
		for i := 0; i < 50; i++ {
			r.AddWeighted(rng.Float64(), relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
		}
		return r
	}
	return &workload.Instance{H: h, Rels: []*relation.Relation{
		mk("R1", "A", "B"), mk("R2", "B", "C"), mk("R3", "B", "D"), mk("R4", "C", "E"),
	}}
}

func TestVariantsMatchBatchOnBushyTree(t *testing.T) {
	inst := bushyInstance(99)
	for _, v := range Variants() {
		if v == Batch {
			continue
		}
		checkVariantAgainstBatch(t, inst, v, sum)
	}
}

func TestVariantsWithMaxCostAggregate(t *testing.T) {
	inst := workload.Path(3, 50, 6, workload.UniformWeights(), 5)
	for _, v := range Variants() {
		if v == Batch {
			continue
		}
		checkVariantAgainstBatch(t, inst, v, ranking.MaxCost)
	}
}

func TestVariantsWithDescendingAggregate(t *testing.T) {
	inst := workload.Path(2, 40, 5, workload.UniformWeights(), 21)
	for _, v := range Variants() {
		if v == Batch {
			continue
		}
		checkVariantAgainstBatch(t, inst, v, ranking.SumBenefit)
	}
}

// Property: on random instances, every variant's full enumeration yields
// identical weight sequences.
func TestVariantAgreementProperty(t *testing.T) {
	f := func(seed uint16, lRaw uint8) bool {
		l := int(lRaw)%3 + 2
		inst := workload.Path(l, 30, 5, workload.UniformWeights(), uint64(seed))
		var ref []Result
		for _, v := range Variants() {
			tdp, err := dp.Build(mustQ(inst), sum)
			if err != nil {
				return false
			}
			it, err := New(context.Background(), tdp, v)
			if err != nil {
				return false
			}
			got := Collect(it, 0)
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				return false
			}
			for i := range got {
				if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func mustQ(inst *workload.Instance) *yannakakis.Query {
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		panic(err)
	}
	return q
}

func TestNumSolutionsMatchesEnumeration(t *testing.T) {
	inst := workload.Path(3, 80, 9, workload.UniformWeights(), 3)
	tdp := buildTDP(t, inst, sum)
	n, err := tdp.NumSolutions()
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(NewBatch(context.Background(), tdp), 0)
	if len(got) != n {
		t.Fatalf("NumSolutions = %d, batch enumerated %d", n, len(got))
	}
}

func TestTopWeightMatchesFirstResult(t *testing.T) {
	inst := workload.Path(4, 70, 8, workload.UniformWeights(), 17)
	tdp := buildTDP(t, inst, sum)
	if tdp.Empty() {
		t.Skip("instance is empty")
	}
	want := tdp.TopWeight()
	it, _ := New(context.Background(), tdp, Lazy)
	r, ok := it.Next()
	if !ok {
		t.Fatal("no result despite non-empty TDP")
	}
	if math.Abs(r.Weight-want) > 1e-9 {
		t.Fatalf("first weight = %g, TopWeight = %g", r.Weight, want)
	}
}

func TestPartialEnumerationConsistent(t *testing.T) {
	// Drawing k results then stopping must give the same prefix as full
	// enumeration.
	inst := workload.Path(3, 60, 7, workload.UniformWeights(), 8)
	tdp := buildTDP(t, inst, sum)
	full := Collect(NewBatch(context.Background(), tdp), 0)
	for _, v := range []Variant{Lazy, Rec} {
		tdp2 := buildTDP(t, inst, sum)
		it, _ := New(context.Background(), tdp2, v)
		k := 10
		if k > len(full) {
			k = len(full)
		}
		got := Collect(it, k)
		for i := 0; i < k; i++ {
			if math.Abs(got[i].Weight-full[i].Weight) > 1e-9 {
				t.Fatalf("%s: rank %d weight %g != %g", v, i, got[i].Weight, full[i].Weight)
			}
		}
	}
}

func TestMergeInterleavesByWeight(t *testing.T) {
	// Two disjoint instances merged must come out globally sorted.
	instA := workload.Path(2, 40, 5, workload.UniformWeights(), 1)
	instB := workload.Path(2, 40, 5, workload.UniformWeights(), 2)
	ta := buildTDP(t, instA, sum)
	tb := buildTDP(t, instB, sum)
	ia, _ := New(context.Background(), ta, Lazy)
	ib, _ := New(context.Background(), tb, Lazy)
	merged := Collect(Merge(context.Background(), sum, ia, ib), 0)
	na := len(Collect(NewBatch(context.Background(), buildTDP(t, instA, sum)), 0))
	nb := len(Collect(NewBatch(context.Background(), buildTDP(t, instB, sum)), 0))
	if len(merged) != na+nb {
		t.Fatalf("merged %d results, want %d", len(merged), na+nb)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Weight < merged[i-1].Weight {
			t.Fatal("merged sequence not sorted")
		}
	}
}

func TestLimit(t *testing.T) {
	inst := workload.Path(2, 40, 5, workload.UniformWeights(), 4)
	tdp := buildTDP(t, inst, sum)
	it, _ := New(context.Background(), tdp, Lazy)
	got := Collect(Limit(it, 5), 0)
	if len(got) != 5 {
		t.Fatalf("Limit(5) yielded %d", len(got))
	}
}

func TestUnknownVariant(t *testing.T) {
	tdp := buildTDP(t, tinyPath(), sum)
	if _, err := New(context.Background(), tdp, Variant("bogus")); err == nil {
		t.Error("unknown variant should error")
	}
}

// Ties: many solutions with identical weights must all be enumerated.
func TestTiedWeights(t *testing.T) {
	// R1(A0,A1) = (i, 0), R2(A1,A2) = (0, j): all 25 combinations join on
	// A1 = 0 with identical weight 2.
	r1 := relation.New("R1", "X", "Y")
	r2 := relation.New("R2", "X", "Y")
	for i := relation.Value(0); i < 5; i++ {
		r1.AddWeighted(1, i, 0)
		r2.AddWeighted(1, 0, i)
	}
	inst := &workload.Instance{H: hypergraph.Path(2), Rels: []*relation.Relation{r1, r2}}
	for _, v := range Variants() {
		tdp := buildTDP(t, inst, sum)
		it, _ := New(context.Background(), tdp, v)
		got := Collect(it, 0)
		if len(got) != 25 {
			t.Errorf("%s: %d results with ties, want 25", v, len(got))
		}
		for _, r := range got {
			if r.Weight != 2 {
				t.Errorf("%s: weight = %g, want 2", v, r.Weight)
			}
		}
	}
}

func TestExhaustionIsStableAcrossVariants(t *testing.T) {
	inst := workload.Path(2, 10, 3, workload.UniformWeights(), 6)
	for _, v := range Variants() {
		tdp := buildTDP(t, inst, sum)
		it, err := New(context.Background(), tdp, v)
		if err != nil {
			t.Fatal(err)
		}
		Collect(it, 0)
		for i := 0; i < 3; i++ {
			if _, ok := it.Next(); ok {
				t.Fatalf("%s: Next returned a result after exhaustion", v)
			}
		}
	}
}

func TestSingleRelationQuery(t *testing.T) {
	// One-atom query: enumeration = sorting the relation.
	r := relation.New("R", "X", "Y")
	r.AddWeighted(3, 1, 2)
	r.AddWeighted(1, 3, 4)
	r.AddWeighted(2, 5, 6)
	inst := &workload.Instance{
		H:    hypergraph.New(hypergraph.E("R", "A", "B")),
		Rels: []*relation.Relation{r},
	}
	for _, v := range Variants() {
		tdp := buildTDP(t, inst, sum)
		it, err := New(context.Background(), tdp, v)
		if err != nil {
			t.Fatal(err)
		}
		got := Collect(it, 0)
		if len(got) != 3 {
			t.Fatalf("%s: %d results, want 3", v, len(got))
		}
		want := []float64{1, 2, 3}
		for i := range got {
			if got[i].Weight != want[i] {
				t.Fatalf("%s: rank %d weight %g, want %g", v, i, got[i].Weight, want[i])
			}
		}
	}
}
