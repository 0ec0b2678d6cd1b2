package repro

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
)

// oneBagGHD is a small chorded 5-cycle (the bench's chorded5 shape) on
// which, as there, the costed search picks the single bag {A,B,C,D,E}:
// the handle every "a plan may be one sorted bag" case below runs on.
// The cost model is returned so a second Compile can pin the same plan.
func oneBagGHD(t *testing.T) (*workload.Instance, *catalog.CostModel, *Prepared) {
	t.Helper()
	inst := workload.SkewedChordedCycle(12, 8, 5, 1.1, workload.UniformWeights(), 3)
	cm := catalog.NewCostModel(inst.H.Edges, inst.Rels, nil)
	p, err := Compile(instanceQuery(inst), WithCostModel(cm))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TopK(1); err != nil {
		t.Fatal(err)
	}
	st := p.PlanStats()
	if st.Kind != "ghd" || len(st.Rankings) != 1 || !reflect.DeepEqual(st.Rankings[0].BagSizes, [][]int{{st.Rankings[0].TotalMaterialized}}) {
		t.Fatalf("fixture drifted: want a one-bag ghd plan, got kind %s bags %+v", st.Kind, st.Rankings)
	}
	return inst, cm, p
}

// TestUnknownVariantRejected: a variant the engine does not implement
// fails every entry point on every plan kind — including the plans that
// never consult it because they enumerate one sorted bag (the triangle
// row accepted "bogus" before the check moved into newRunConfig).
func TestUnknownVariantRejected(t *testing.T) {
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 7)
	compile := func(atoms ...atomSpec) *Prepared {
		p, err := Compile(graphQuery(g, atoms))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	_, _, ghd := oneBagGHD(t)
	handles := map[string]*Prepared{
		"acyclic":  compile(atomSpec{"R1", []string{"A", "B"}}, atomSpec{"R2", []string{"B", "C"}}),
		"triangle": compile(atomSpec{"R1", []string{"A", "B"}}, atomSpec{"R2", []string{"B", "C"}}, atomSpec{"R3", []string{"C", "A"}}),
		"four-cycle": compile(atomSpec{"R1", []string{"A", "B"}}, atomSpec{"R2", []string{"B", "C"}},
			atomSpec{"R3", []string{"C", "D"}}, atomSpec{"R4", []string{"D", "A"}}),
		"one-bag ghd": ghd,
	}
	bogus := WithVariant("bogus")
	for name, p := range handles {
		_, runErr := p.Run(bogus)
		_, topErr := p.TopK(3, bogus)
		_, countErr := p.Count(bogus)
		_, emptyErr := p.IsEmpty(bogus)
		for call, err := range map[string]error{"Run": runErr, "TopK": topErr, "Count": countErr, "IsEmpty": emptyErr} {
			if err == nil || !strings.Contains(err.Error(), `unknown variant "bogus"`) {
				t.Errorf("%s: %s(WithVariant(bogus)) = %v, want an unknown-variant error", name, call, err)
			}
		}
		if _, err := p.TopK(3, WithVariant(Rec)); err != nil {
			t.Errorf("%s: a known variant failed: %v", name, err)
		}
	}
}

// TestCyclesDeclaredAgainstTheWalk: cycle atoms whose columns oppose the
// walk direction are bound to the walk's variables by name — no relation
// is copied or column-swapped — and the handle still returns the walk's
// schema and exactly the brute-force rows, for any worker count.
func TestCyclesDeclaredAgainstTheWalk(t *testing.T) {
	cases := []struct {
		kind  string
		edges []hypergraph.Edge // two per case run against the walk
		walk  []string
	}{
		{"four-cycle", []hypergraph.Edge{
			hypergraph.E("R1", "P", "Z"), hypergraph.E("R2", "B", "Z"),
			hypergraph.E("R3", "B", "Q"), hypergraph.E("R4", "P", "Q"),
		}, []string{"P", "Z", "B", "Q"}},
		{"cycle", []hypergraph.Edge{
			hypergraph.E("R1", "P", "Z"), hypergraph.E("R2", "Z", "B"), hypergraph.E("R3", "Q", "B"),
			hypergraph.E("R4", "Q", "A"), hypergraph.E("R5", "P", "A"),
		}, []string{"P", "Z", "B", "Q", "A"}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			inst := &workload.Instance{H: hypergraph.New(tc.edges...)}
			for i, e := range tc.edges {
				// Distinct data per atom, so binding a column to the wrong
				// variable cannot cancel out.
				r := workload.RandomGraph(7, 24, workload.UniformWeights(), uint64(90+i)).Edges
				inst.Rels = append(inst.Rels, &relation.Relation{Name: e.Name, Attrs: e.Vars, Tuples: r.Tuples, Weights: r.Weights})
			}
			p, err := Compile(instanceQuery(inst))
			if err != nil {
				t.Fatal(err)
			}
			if got := p.PlanStats().Kind; got != tc.kind {
				t.Errorf("compiled to kind %s, want %s", got, tc.kind)
			}
			if !reflect.DeepEqual(p.OutAttrs(), tc.walk) {
				t.Errorf("OutAttrs = %v, want the walk %v", p.OutAttrs(), tc.walk)
			}
			if n, err := p.Count(); err != nil || n == 0 {
				t.Fatalf("Count = %d, %v: the fixture must have answers", n, err)
			}
			parityCase(t, inst, 3)
		})
	}
}

// TestGHDDeltaRebuildsEveryBag pins the one delta policy for
// materialised bags: a delta to one relation of a bowtie GHD rebuilds
// every bag of every warm ranking's plan — the untouched triangle's bag
// included — and reruns every node of the bag tree, and both rankings
// stay bit-identical to a cold Compile on the updated data.
func TestGHDDeltaRebuildsEveryBag(t *testing.T) {
	g := workload.RandomGraph(10, 40, workload.UniformWeights(), 17)
	pairs := [][2]string{{"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "D"}, {"D", "E"}, {"E", "A"}}
	mirrors := make([]*dataMirror, len(pairs))
	for i := range mirrors {
		mirrors[i] = &dataMirror{tuples: slices.Clone(g.Edges.Tuples), weights: slices.Clone(g.Edges.Weights)}
	}
	// Structural planning pins one decomposition on both sides.
	compile := func() *Prepared {
		q := NewQuery()
		for i, v := range pairs {
			q.Rel(fmt.Sprintf("R%d", i+1), v[:], mirrors[i].tuples, mirrors[i].weights)
		}
		p, err := Compile(q, WithStatistics(nil))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := compile()
	aggs := []ranking.Aggregate{SumCost, MaxCost}
	for _, a := range aggs {
		if _, err := p.TopK(1, WithRanking(a)); err != nil {
			t.Fatal(err)
		}
	}
	st := p.PlanStats()
	bags := 0
	for _, tree := range st.Rankings[0].BagSizes {
		bags += len(tree)
	}
	if st.Kind != "ghd" || bags < 2 {
		t.Fatalf("fixture drifted: want a ghd bag tree, got kind %s bags %v", st.Kind, st.Rankings[0].BagSizes)
	}

	// R1(A,B) loses the row under the best max answer and gains two.
	top, err := p.TopK(1, WithRanking(MaxCost))
	if err != nil || len(top) == 0 {
		t.Fatalf("no answer to delete under: %v", err)
	}
	delta := Delta{Rel: "R1", Append: []Tuple{{1, 2}, {3, 4}}, AppendWeights: []float64{0.25, 0.75}, Delete: []Tuple{top[0].Tuple[:2]}}
	if err := p.ApplyDelta([]Delta{delta}); err != nil {
		t.Fatal(err)
	}
	mirrors[0].apply(delta)
	st = p.PlanStats()
	if want := int64(len(aggs) * bags); st.DeltaBagsRebuilt != want || st.DeltaNodesRecomputed != want || st.DeltaNodesReused != 0 {
		t.Fatalf("delta report: %d bags rebuilt, %d nodes recomputed, %d reused; want %d, %d, 0",
			st.DeltaBagsRebuilt, st.DeltaNodesRecomputed, st.DeltaNodesReused, want, want)
	}
	cold := compile()
	for _, a := range aggs {
		got, err := p.TopK(0, WithRanking(a))
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.TopK(0, WithRanking(a))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, a.Name(), got, want)
	}
}

// TestOneBagGHDDelta: a GHD of a single bag has no T-DP — Run sorts the
// bag — and still survives ApplyDelta bit-identical to a cold Compile.
// Its delta report is one bag and one tree node per warm ranking, both
// redone, because the bag reads every relation.
func TestOneBagGHDDelta(t *testing.T) {
	inst, cm, p := oneBagGHD(t)
	top, err := p.TopK(1, WithRanking(MaxCost))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := p.Count()
	// Delete the R3(C,D) row under the best answer, so the bag's contents
	// (and the answer set) really change.
	delta := Delta{Rel: "R3", Append: []Tuple{{1, 2}, {4, 0}}, AppendWeights: []float64{0.25, 0.75}, Delete: []Tuple{top[0].Tuple[2:4]}}
	if err := p.ApplyDelta([]Delta{delta}); err != nil {
		t.Fatal(err)
	}
	if after, _ := p.Count(); after >= before {
		t.Fatalf("Count %d → %d: the delta must remove answers", before, after)
	}
	mirrors := make([]*dataMirror, len(inst.Rels))
	for i, r := range inst.Rels {
		mirrors[i] = &dataMirror{tuples: r.Tuples, weights: r.Weights}
	}
	mirrors[2].apply(delta)
	cold, err := Compile(mirrorQuery(inst, mirrors), WithCostModel(cm))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range parityAggregates {
		got, err := p.TopK(0, WithRanking(a.agg))
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.TopK(0, WithRanking(a.agg))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("the fixture must have answers")
		}
		assertBitIdentical(t, a.name, got, want)
	}
	st := p.PlanStats()
	if st.Epoch != 2 || st.DeltaBagsRebuilt != 2 || st.DeltaNodesRecomputed != 2 || st.DeltaNodesReused != 0 {
		t.Errorf("delta report %+v, want epoch 2 with 2 bags and 2 nodes redone (one per warm ranking), none reused", st)
	}
}
