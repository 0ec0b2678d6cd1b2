package repro

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
)

// A query whose atoms fall into several components is one join tree:
// tree edges between components have the empty key, so the product of
// the components is enumerated, never materialised. These tests hold
// such queries to the brute-force oracle (bruteGroups).

// graphInstance binds every atom, named by its variables, to g's edges.
func graphInstance(g *workload.Graph, atoms ...[2]string) *workload.Instance {
	inst := &workload.Instance{H: hypergraph.New()}
	for _, a := range atoms {
		inst.H.Edges = append(inst.H.Edges, hypergraph.E(a[0]+a[1], a[0], a[1]))
		inst.Rels = append(inst.Rels, g.Edges)
	}
	return inst
}

// twoAtoms is R(A,B), S(C,D) over hand-picked rows.
func twoAtoms() *workload.Instance {
	r := relation.New("R", "A", "B")
	r.AddWeighted(1, 1, 2)
	r.AddWeighted(2, 1, 3)
	r.AddWeighted(4, 2, 2)
	s := relation.New("S", "C", "D")
	s.AddWeighted(10, 5, 6)
	s.AddWeighted(20, 7, 8)
	s.AddWeighted(0.5, 5, 5)
	return &workload.Instance{
		H:    hypergraph.New(hypergraph.E("R", "A", "B"), hypergraph.E("S", "C", "D")),
		Rels: []*relation.Relation{r, s},
	}
}

var (
	triangleXYZ = [][2]string{{"X", "Y"}, {"Y", "Z"}, {"Z", "X"}}
	triangleABC = [][2]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}
	pathABC     = [][2]string{{"A", "B"}, {"B", "C"}}
)

func disconnectedInstances() map[string]*workload.Instance {
	g := workload.RandomGraph(8, 30, workload.UniformWeights(), 5)
	three := graphInstance(g, triangleABC...)
	two := twoAtoms()
	three.H.Edges = append(three.H.Edges, hypergraph.E("R", "P", "Q"), hypergraph.E("S", "U", "V"))
	three.Rels = append(three.Rels, two.Rels...)
	return map[string]*workload.Instance{
		"R(A,B) x S(C,D)":     two,
		"path x triangle":     graphInstance(g, append(slices.Clone(pathABC), triangleXYZ...)...),
		"triangle x triangle": graphInstance(g, append(slices.Clone(triangleABC), triangleXYZ...)...),
		"triangle x R x S":    three,
		"path x 2-cycle":      graphInstance(g, append(slices.Clone(pathABC), [2]string{"X", "Y"}, [2]string{"Y", "X"})...),
	}
}

// rankedWeights is every weight of want, in agg's rank order.
func rankedWeights(want map[string][]float64, agg ranking.Aggregate) []float64 {
	var ws []float64
	for _, g := range want {
		ws = append(ws, g...)
	}
	slices.SortFunc(ws, func(a, b float64) int {
		switch {
		case agg.Less(a, b):
			return -1
		case agg.Less(b, a):
			return 1
		}
		return 0
	})
	return ws
}

// oracleHolds reports how results differ from the oracle groups want: as
// a (tuple, weight) multiset, or in rank order; "" if they do not.
func oracleHolds(results []Result, want map[string][]float64, agg ranking.Aggregate) string {
	if diff := groupsDiffer(engineGroups(results), want); diff != "" {
		return diff
	}
	for i, w := range rankedWeights(want, agg) {
		if math.Abs(results[i].Weight-w) > 1e-9 {
			return fmt.Sprintf("result %d has weight %v, rank %d of the oracle %v", i, results[i].Weight, i, w)
		}
	}
	return ""
}

// TestDisconnectedParity: every variant under every ranking enumerates
// the oracle's answers in rank order; Count, IsEmpty and a fixed-seed
// Sample agree with it, and a parallel build with a sequential one.
func TestDisconnectedParity(t *testing.T) {
	for name, inst := range disconnectedInstances() {
		t.Run(name, func(t *testing.T) {
			disconnectedParity(t, inst)
			parityCase(t, inst, 4)
		})
	}
}

func disconnectedParity(t *testing.T, inst *workload.Instance) {
	p, err := Compile(instanceQuery(inst))
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range ranking.All {
		want := bruteGroups(inst, p.OutAttrs(), agg)
		for _, v := range allVariants {
			got, err := p.TopK(0, WithRanking(agg), WithVariant(v))
			if err != nil {
				t.Fatalf("%s %s: %v", agg.Name(), v, err)
			}
			if diff := oracleHolds(got, want, agg); diff != "" {
				t.Errorf("%s %s: %s", agg.Name(), v, diff)
			}
		}
	}
	want := bruteGroups(inst, p.OutAttrs(), SumCost)
	total := 0
	for _, ws := range want {
		total += len(ws)
	}
	if n, err := p.Count(); err != nil || n != total {
		t.Errorf("Count = %d, %v; oracle %d", n, err, total)
	}
	if empty, err := p.IsEmpty(); err != nil || empty != (total == 0) {
		t.Errorf("IsEmpty = %v, %v; oracle has %d answers", empty, err, total)
	}
	samples, err := p.Sample(64, WithSeed(9))
	if err != nil || len(samples) != 64 {
		t.Fatalf("Sample drew %d, %v", len(samples), err)
	}
	for _, s := range samples {
		ws := want[answerKey(s.Tuple)]
		if !slices.ContainsFunc(ws, func(w float64) bool { return math.Abs(w-s.Weight) <= 1e-9 }) {
			t.Errorf("sampled %v weighing %v, not an answer of the oracle", s.Tuple, s.Weight)
		}
	}
	if again, _ := p.Sample(64, WithSeed(9)); !reflect.DeepEqual(again, samples) {
		t.Error("two samples with one seed differ")
	}
}

// TestDisconnectedDelta: deltas that empty one component and then
// refill it move the ranked product with them, under every variant.
func TestDisconnectedDelta(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}, {1, 3}}, []float64{1, 2}).
		Rel("S", []string{"C", "D"}, []Tuple{{5, 6}, {7, 8}}, []float64{10, 20})
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		delta Delta
		want  []float64
	}{
		{Delta{}, []float64{11, 12, 21, 22}},
		{Delta{Rel: "S", Append: []Tuple{{9, 9}}, AppendWeights: []float64{0.5}}, []float64{1.5, 2.5, 11, 12, 21, 22}},
		{Delta{Rel: "S", Delete: []Tuple{{5, 6}, {7, 8}, {9, 9}}}, nil},
		{Delta{Rel: "S", Append: []Tuple{{4, 4}}, AppendWeights: []float64{100}}, []float64{101, 102}},
	}
	for i, s := range steps {
		if s.delta.Rel != "" {
			if err := p.ApplyDelta([]Delta{s.delta}); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		for _, v := range allVariants {
			res, err := p.TopK(0, WithVariant(v))
			if err != nil {
				t.Fatalf("step %d %s: %v", i, v, err)
			}
			var got []float64
			for _, r := range res {
				got = append(got, r.Weight)
			}
			if !slices.Equal(got, s.want) {
				t.Errorf("step %d %s: weights %v, want %v", i, v, got, s.want)
			}
		}
		if n, err := p.Count(); err != nil || n != len(s.want) {
			t.Errorf("step %d: Count = %d, %v; want %d", i, n, err, len(s.want))
		}
		if empty, err := p.IsEmpty(); err != nil || empty != (len(s.want) == 0) {
			t.Errorf("step %d: IsEmpty = %v, %v with %d answers", i, empty, err, len(s.want))
		}
	}
}

// TestDisconnectedMaterializesComponents: two disjoint triangles
// materialise each triangle's own answers, one bag apiece — never
// their product.
func TestDisconnectedMaterializesComponents(t *testing.T) {
	g := workload.RandomGraph(60, 400, workload.UniformWeights(), 3)
	p, err := Compile(instanceQuery(graphInstance(g, append(slices.Clone(triangleABC), triangleXYZ...)...)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TopK(1); err != nil {
		t.Fatal(err)
	}
	st := p.PlanStats()
	if got := st.Rankings[0]; got.TotalMaterialized != 726 || !reflect.DeepEqual(got.BagSizes, [][]int{{363, 363}}) {
		t.Errorf("%s materialised %d bag rows %v, want 726 in [[363 363]]", st.Decomposition, got.TotalMaterialized, got.BagSizes)
	}
	if st.Solutions != 363*363 {
		t.Errorf("%d answers, want 363² = %d", st.Solutions, 363*363)
	}
}
