package decomp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// TestBorrowedRowsEveryPlanKind checks the Result contract — a row is
// valid until the iterator's next Next — on every kind of tree a plan
// holds, under every variant: an atom tree, one bag enumerated with and
// without a schema permutation, the 4-cycle's trees under Merge, and a
// GHD bag tree. Two Runs of one plan are drained in lockstep, each row
// cloned right after its Next: the two must agree row for row (so Runs
// share no buffer), the first Run's row must be untouched by the second
// Run's Next, each row must carry its own weight (the sum of its edges'
// weights — an iterator that overwrote a row before handing it out
// would pair it with another result's), and the drain must equal
// Collect tuple for tuple and weight bit for weight bit.
func TestBorrowedRowsEveryPlanKind(t *testing.T) {
	// One weight per directed edge, so a row determines its weight.
	raw := workload.RandomGraph(12, 80, workload.UniformWeights(), 9).Edges
	edges := relation.New("E", "src", "dst")
	edgeW := map[[2]relation.Value]float64{}
	for i, tu := range raw.Tuples {
		k := [2]relation.Value{tu[0], tu[1]}
		if _, dup := edgeW[k]; !dup {
			edges.AddWeighted(raw.Weights[i], tu[0], tu[1])
			edgeW[k] = raw.Weights[i]
		}
	}
	g := &workload.Graph{Edges: edges, Vertices: 12}
	path, pathRels := graphAtoms(g, [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})
	pathShape, ok := AcyclicShape(path)
	if !ok {
		t.Fatal("path is cyclic")
	}
	tri, triRels := graphAtoms(g, [][2]string{{"A", "B"}, {"B", "C"}, {"C", "A"}})
	triDec, err := hypergraph.New(tri...).DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	c4, c4Rels := graphAtoms(g, [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "A"}})
	bowtie, bowtieRels := graphAtoms(g, ghdShapes["bowtie"])
	bowtieDec, err := hypergraph.New(bowtie...).DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	rotated := WithOrderChooser(func([]wcoj.Atom) ([]string, error) { return []string{"C", "A", "B"}, nil })
	plans := []struct {
		name    string
		edges   []hypergraph.Edge
		attrs   []string
		prepare func() (*Plan, error)
		kind    func(*Plan) bool
	}{
		{"atom tree", path, pathShape.Attrs, func() (*Plan, error) { return pathShape.Prepare(pathRels, sum) },
			func(p *Plan) bool { return len(p.trees) == 1 && p.trees[0].t != nil }},
		{"one bag", tri, TriangleAttrs, func() (*Plan, error) { return PrepareTriangle([3]*relation.Relation(triRels), sum) },
			func(p *Plan) bool { return len(p.trees) == 1 && p.trees[0].bag != nil && p.trees[0].perm == nil }},
		{"one permuted bag", tri, GHDAttrs(tri), func() (*Plan, error) { return PrepareGHDWith(triDec, tri, triRels, sum, rotated) },
			func(p *Plan) bool { return len(p.trees) == 1 && p.trees[0].bag != nil && p.trees[0].perm != nil }},
		{"four-cycle merge", c4, FourCycleAttrs, func() (*Plan, error) { return PrepareFourCycleSubmodular([4]*relation.Relation(c4Rels), sum) },
			func(p *Plan) bool { return len(p.trees) > 1 }},
		{"ghd bag tree", bowtie, GHDAttrs(bowtie), func() (*Plan, error) { return PrepareGHDWith(bowtieDec, bowtie, bowtieRels, sum) },
			func(p *Plan) bool { return len(p.trees) == 1 && p.trees[0].t != nil }},
	}
	for _, pc := range plans {
		p, err := pc.prepare()
		if err != nil {
			t.Fatal(err)
		}
		if !pc.kind(p) {
			t.Fatalf("%s: fixture drifted to another plan kind", pc.name)
		}
		for _, v := range core.Variants() {
			want := core.Collect(runPlan(t, p, v), 0)
			if len(want) == 0 {
				t.Fatalf("%s/%s: no results", pc.name, v)
			}
			a, b := runPlan(t, p, v), runPlan(t, p, v)
			var got []core.Result
			for {
				ra, okA := a.Next()
				var keep relation.Tuple
				if okA {
					keep = slices.Clone(ra.Tuple)
				}
				rb, okB := b.Next()
				if okA != okB {
					t.Fatalf("%s/%s: lockstep Runs end apart after %d results", pc.name, v, len(got))
				}
				if !okA {
					break
				}
				if !slices.Equal(rb.Tuple, keep) || !slices.Equal(ra.Tuple, keep) {
					t.Fatalf("%s/%s: result %d: rows %v and %v, first cloned as %v", pc.name, v, len(got), ra.Tuple, rb.Tuple, keep)
				}
				w := 0.0
				for _, e := range pc.edges {
					w += edgeW[[2]relation.Value{keep[slices.Index(pc.attrs, e.Vars[0])], keep[slices.Index(pc.attrs, e.Vars[1])]}]
				}
				if math.Abs(w-ra.Weight) > 1e-9 {
					t.Fatalf("%s/%s: result %d: row %v weighs %g, delivered with %g", pc.name, v, len(got), keep, w, ra.Weight)
				}
				got = append(got, core.Result{Tuple: keep, Weight: ra.Weight})
			}
			if err := a.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: drained %d results, Collect %d", pc.name, v, len(got), len(want))
			}
			for i := range got {
				if !slices.Equal(got[i].Tuple, want[i].Tuple) || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
					t.Fatalf("%s/%s: result %d is %v, Collect has %v", pc.name, v, i, got[i], want[i])
				}
			}
		}
	}
}
