package decomp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
)

// bruteForce computes the full join of the atoms by backtracking over
// variable bindings, returning the result weights sorted into agg's
// ranking order. It is the trusted baseline the GHD plans are compared
// against.
func bruteForce(edges []hypergraph.Edge, rels []*relation.Relation, agg ranking.Aggregate) []float64 {
	binding := map[string]relation.Value{}
	var weights []float64
	var rec func(i int, w float64)
	rec = func(i int, w float64) {
		if i == len(edges) {
			weights = append(weights, w)
			return
		}
		e, r := edges[i], rels[i]
	tuples:
		for ti, t := range r.Tuples {
			bound := map[string]bool{}
			for c, v := range e.Vars {
				if bv, ok := binding[v]; ok {
					if bv != t[c] {
						for bv2 := range bound {
							delete(binding, bv2)
						}
						continue tuples
					}
				} else {
					binding[v] = t[c]
					bound[v] = true
				}
			}
			rec(i+1, agg.Combine(w, r.Weights[ti]))
			for v := range bound {
				delete(binding, v)
			}
		}
	}
	rec(0, agg.Identity())
	sort.Slice(weights, func(i, j int) bool { return agg.Less(weights[i], weights[j]) })
	return weights
}

// decomposeAndPrepare runs the structural GHD search and compiles the
// query over the decomposition it finds.
func decomposeAndPrepare(edges []hypergraph.Edge, rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	d, err := hypergraph.New(edges...).DecomposeCosted(nil)
	if err != nil {
		return nil, err
	}
	return PrepareGHDWith(d, edges, rels, agg, opts...)
}

// drain collects every result weight from the plan in order, checking
// ranking monotonicity along the way.
func drain(t *testing.T, p *Plan, agg ranking.Aggregate) []float64 {
	t.Helper()
	it := runPlan(t, p, core.Lazy)
	defer it.Close()
	var out []float64
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if len(out) > 0 && agg.Less(r.Weight, out[len(out)-1]) {
			t.Fatalf("result %d (weight %g) ranked after better weight %g", len(out), r.Weight, out[len(out)-1])
		}
		out = append(out, r.Weight)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameWeights(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, brute force has %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%s: weight[%d] = %g, brute force %g", label, i, got[i], want[i])
		}
	}
}

// graphAtoms binds l copies of the graph's edge relation to the given
// variable pairs.
func graphAtoms(g *workload.Graph, pairs [][2]string) ([]hypergraph.Edge, []*relation.Relation) {
	edges := make([]hypergraph.Edge, len(pairs))
	rels := make([]*relation.Relation, len(pairs))
	for i, p := range pairs {
		edges[i] = hypergraph.E(nameFor(i), p[0], p[1])
		rels[i] = g.Edges
	}
	return edges, rels
}

func nameFor(i int) string { return fmt.Sprintf("R%d", i+1) }

var ghdShapes = map[string][][2]string{
	"K4": {
		{"A", "B"}, {"A", "C"}, {"A", "D"}, {"B", "C"}, {"B", "D"}, {"C", "D"},
	},
	"bowtie": {
		{"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "D"}, {"D", "E"}, {"E", "A"},
	},
	"star-with-chord": {
		{"A", "B"}, {"A", "C"}, {"A", "D"}, {"B", "C"},
	},
	"fused-triangles": { // two triangles sharing edge B-C (K4 minus an edge)
		{"A", "B"}, {"B", "C"}, {"C", "A"}, {"B", "D"}, {"D", "C"},
	},
	"5-clique": {
		{"A", "B"}, {"A", "C"}, {"A", "D"}, {"A", "E"}, {"B", "C"},
		{"B", "D"}, {"B", "E"}, {"C", "D"}, {"C", "E"}, {"D", "E"},
	},
}

func TestGHDParityAllShapes(t *testing.T) {
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 7)
	aggs := []ranking.Aggregate{
		ranking.SumCost, ranking.SumBenefit, ranking.MaxCost,
		ranking.MinBenefit, ranking.ProductCost,
	}
	for name, pairs := range ghdShapes {
		edges, rels := graphAtoms(g, pairs)
		for _, agg := range aggs {
			want := bruteForce(edges, rels, agg)
			p, err := decomposeAndPrepare(edges, rels, agg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, agg.Name(), err)
			}
			got := drain(t, p, agg)
			sameWeights(t, got, want, name+"/"+agg.Name())
		}
	}
}

func TestGHDParityHigherArity(t *testing.T) {
	// A cyclic query with a ternary atom: R(A,B,C), S(C,D), T(D,A).
	rng := workload.NewRand(11)
	r := relation.New("R", "x", "y", "z")
	s := relation.New("S", "x", "y")
	u := relation.New("T", "x", "y")
	for i := 0; i < 60; i++ {
		r.AddWeighted(rng.Float64(), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)))
		s.AddWeighted(rng.Float64(), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)))
		u.AddWeighted(rng.Float64(), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)))
	}
	edges := []hypergraph.Edge{
		hypergraph.E("R", "A", "B", "C"),
		hypergraph.E("S", "C", "D"),
		hypergraph.E("T", "D", "A"),
	}
	rels := []*relation.Relation{r, s, u}
	agg := ranking.SumCost
	want := bruteForce(edges, rels, agg)
	p, err := decomposeAndPrepare(edges, rels, agg)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, p, agg)
	sameWeights(t, got, want, "ternary-cycle")
	if len(got) == 0 {
		t.Skip("instance produced no results; weaken domain to make the test meaningful")
	}
}

func TestGHDWeightsNotDoubleCounted(t *testing.T) {
	// One single triangle, each relation holding exactly the one matching
	// tuple with weight 1: SumCost must report 3, not more — a relation
	// counted in two bags would inflate it.
	mk := func(name string, a, b relation.Value) *relation.Relation {
		r := relation.New(name, "x", "y")
		r.AddWeighted(1, a, b)
		return r
	}
	edges := []hypergraph.Edge{
		hypergraph.E("R1", "A", "B"), hypergraph.E("R2", "B", "C"), hypergraph.E("R3", "C", "A"),
	}
	rels := []*relation.Relation{mk("R1", 1, 2), mk("R2", 2, 3), mk("R3", 3, 1)}
	p, err := decomposeAndPrepare(edges, rels, ranking.SumCost)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, p, ranking.SumCost)
	if len(got) != 1 || math.Abs(got[0]-3) > 1e-9 {
		t.Fatalf("triangle weights = %v, want [3]", got)
	}
}

func TestGHDDuplicateMultiplicity(t *testing.T) {
	// Bag semantics: a duplicated input tuple doubles the result count,
	// but only through its charged bag.
	r1 := relation.New("R1", "x", "y")
	r1.AddWeighted(1, 1, 2)
	r1.AddWeighted(5, 1, 2) // duplicate tuple, different weight
	mk := func(name string, a, b relation.Value, w float64) *relation.Relation {
		r := relation.New(name, "x", "y")
		r.AddWeighted(w, a, b)
		return r
	}
	edges := []hypergraph.Edge{
		hypergraph.E("R1", "A", "B"), hypergraph.E("R2", "B", "C"), hypergraph.E("R3", "C", "A"),
	}
	rels := []*relation.Relation{r1, mk("R2", 2, 3, 1), mk("R3", 3, 1, 1)}
	agg := ranking.SumCost
	want := bruteForce(edges, rels, agg)
	p, err := decomposeAndPrepare(edges, rels, agg)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, p, agg)
	sameWeights(t, got, want, "dup-multiplicity")
	if len(got) != 2 {
		t.Fatalf("expected 2 results (duplicate tuple), got %d", len(got))
	}
}

func TestGHDDisconnectedQuery(t *testing.T) {
	// Two disjoint triangles: the plan must produce the cartesian product.
	g := workload.RandomGraph(6, 18, workload.UniformWeights(), 3)
	pairs := [][2]string{
		{"A", "B"}, {"B", "C"}, {"C", "A"},
		{"X", "Y"}, {"Y", "Z"}, {"Z", "X"},
	}
	edges, rels := graphAtoms(g, pairs)
	agg := ranking.SumCost
	want := bruteForce(edges, rels, agg)
	p, err := decomposeAndPrepare(edges, rels, agg)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, p, agg)
	sameWeights(t, got, want, "disconnected")
}

func TestGHDOutputSchema(t *testing.T) {
	edges := []hypergraph.Edge{
		hypergraph.E("R1", "A", "B"), hypergraph.E("R2", "B", "C"), hypergraph.E("R3", "C", "A"),
	}
	attrs := GHDAttrs(edges)
	if len(attrs) != 3 || attrs[0] != "A" || attrs[1] != "B" || attrs[2] != "C" {
		t.Fatalf("GHDAttrs = %v, want [A B C]", attrs)
	}
	mk := func(name string, a, b relation.Value) *relation.Relation {
		r := relation.New(name, "x", "y")
		r.AddWeighted(0, a, b)
		return r
	}
	rels := []*relation.Relation{mk("R1", 1, 2), mk("R2", 2, 3), mk("R3", 3, 1)}
	p, err := decomposeAndPrepare(edges, rels, ranking.SumCost)
	if err != nil {
		t.Fatal(err)
	}
	it, err := p.Run(context.Background(), core.Lazy)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	res, ok := it.Next()
	if !ok {
		t.Fatal("expected the one triangle")
	}
	wantTuple := relation.Tuple{1, 2, 3} // (A,B,C)
	for i := range wantTuple {
		if res.Tuple[i] != wantTuple[i] {
			t.Fatalf("tuple = %v, want %v (schema %v)", res.Tuple, wantTuple, attrs)
		}
	}
}

func TestGHDVariantsAgree(t *testing.T) {
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 9)
	edges, rels := graphAtoms(g, ghdShapes["fused-triangles"])
	agg := ranking.SumCost
	p, err := decomposeAndPrepare(edges, rels, agg)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	for _, v := range []core.Variant{core.Eager, core.Lazy, core.Quick, core.All, core.Take2, core.Rec, core.Batch} {
		it, err := p.Run(context.Background(), v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		var got []float64
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, r.Weight)
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		it.Close()
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d results, ref %d", v, len(got), len(ref))
		}
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-9 {
				t.Fatalf("%s: weight[%d] = %g, ref %g", v, i, got[i], ref[i])
			}
		}
	}
}
