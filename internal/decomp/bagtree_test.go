package decomp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// cycleShape is CycleShape with no coster (the fan for l ≥ 5) over
// the l-cycle R1(A0,A1) ⋈ ... ⋈ Rl(A_{l-1},A0).
func cycleShape(t *testing.T, l int) *Shape {
	t.Helper()
	edges, order, attrs := make([]hypergraph.Edge, l), make([]int, l), CycleAttrs(l)
	for i := range edges {
		edges[i], order[i] = hypergraph.E(nameFor(i), attrs[i], attrs[(i+1)%l]), i
	}
	s, err := CycleShape(edges, order, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBagTreeKeepsReducedRows: a plan keeps of a bag tree only its
// T-DP, whose nodes hold the fully reduced rows they enumerate — the
// full reducer's per-node counts over the bags prepareGHD materialises,
// which the bottom-up sweep alone leaves larger — on the c5 fan and on
// the bowtie's searched GHD.
func TestBagTreeKeepsReducedRows(t *testing.T) {
	var c5 shapeFixture
	for _, f := range shapeFixtures() {
		if f.name == "c5" {
			c5 = f
		}
	}
	// The two triangles read different graphs, so some A closes a
	// triangle on one side only.
	edges, rels := graphAtoms(workload.RandomGraph(12, 30, workload.UniformWeights(), 3), ghdShapes["bowtie"])
	other := workload.RandomGraph(12, 30, workload.UniformWeights(), 4).Edges
	for i := 3; i < 6; i++ {
		rels[i] = other
	}
	d, err := hypergraph.New(edges...).DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bags) < 2 {
		t.Fatalf("bowtie decomposed into %d bags, want a bag tree", len(d.Bags))
	}
	cases := []struct {
		name  string
		shape *Shape
		rels  []*relation.Relation
	}{{"c5", cycleShape(t, 5), c5.rels}, {"bowtie", GHDShape(d, edges), rels}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, _, err := c.shape.Build(c.rels, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := e.Instantiate(sum, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, bags, err := c.shape.prepareGHD(newPrepCfg(nil), 0, 0, e.rels, sum)
			if err != nil {
				t.Fatal(err)
			}
			q, err := bagQuery(bags)
			if err != nil {
				t.Fatal(err)
			}
			bu, err := q.ReduceKeep(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			fin, err := q.FullReduceWith(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			nodes := p.trees[0].t.Nodes
			bottomUp, final := 0, 0
			for pos, edge := range q.Tree.Order {
				if got, want := nodes[pos].Rel.Len(), fin[edge].Len(); got != want {
					t.Errorf("node %d holds %d rows, the full reducer keeps %d", pos, got, want)
				}
				bottomUp += bu[edge].Len()
				final += fin[edge].Len()
			}
			t.Logf("%s bag rows: %d materialised, %d after the bottom-up sweep, %d fully reduced", c.name, p.Stats.TotalMaterialized, bottomUp, final)
			if bottomUp <= final {
				t.Fatalf("fixture leaves no dangling bottom-up rows (%d vs %d): the check proves nothing", bottomUp, final)
			}
		})
	}
}

// TestAtomTreeKeepsBottomUpRows: an atom tree's T-DP nodes hold exactly
// the rows of the bottom-up sweep over the tree's inputs — row for row,
// weights included — and not the fully reduced ones: atom trees are
// patched by delta, and the bottom-up rows are the next delta's
// predecessor. The fixture is a 3-path over three different graphs, so
// the top-down sweep would drop rows.
func TestAtomTreeKeepsBottomUpRows(t *testing.T) {
	edges, rels := graphAtoms(workload.RandomGraph(12, 30, workload.UniformWeights(), 3), [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})
	for i := 1; i < len(rels); i++ {
		rels[i] = workload.RandomGraph(12, 30, workload.UniformWeights(), uint64(3+i)).Edges
	}
	s, ok := AcyclicShape(edges)
	if !ok {
		t.Fatal("path is cyclic")
	}
	e, _, err := s.Build(rels, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := e.Instantiate(sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := &yannakakis.Query{Rels: e.rels, H: hypergraph.New(edges...), Tree: s.trees[0].join}
	bu, err := q.ReduceKeep(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := q.FullReduceWith(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.trees[0].t.Nodes
	bottomUp, final := 0, 0
	for pos, edge := range q.Tree.Order {
		got, want := nodes[pos].Rel, bu[edge]
		if !reflect.DeepEqual(got.Tuples, want.Tuples) || !reflect.DeepEqual(got.Weights, want.Weights) {
			t.Errorf("node %d holds %d rows that differ from the bottom-up sweep's %d", pos, got.Len(), want.Len())
		}
		bottomUp += want.Len()
		final += fin[edge].Len()
	}
	t.Logf("path rows: %d after the bottom-up sweep, %d fully reduced", bottomUp, final)
	if bottomUp <= final {
		t.Fatalf("fixture leaves no dangling bottom-up rows (%d vs %d): the check proves nothing", bottomUp, final)
	}
}

// TestEpochCountsMatchRun: Epoch.NumSolutions counts, without
// enumerating, exactly the results Run drains — off the atom tree's
// reduced plan for a path, off each bag tree's T-DP for the submodular
// 4-cycle, the 5-cycle fan and the bowtie's searched GHD.
func TestEpochCountsMatchRun(t *testing.T) {
	g := workload.RandomGraph(8, 30, workload.UniformWeights(), 5)
	path, _ := graphAtoms(g, [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})
	pathShape, ok := AcyclicShape(path)
	if !ok {
		t.Fatal("path is cyclic")
	}
	bowtie, _ := graphAtoms(g, ghdShapes["bowtie"])
	d, err := hypergraph.New(bowtie...).DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Shape{pathShape, cycleShape(t, 4), cycleShape(t, 5), GHDShape(d, bowtie)} {
		_, rels := graphAtoms(g, make([][2]string, len(s.Edges)))
		e, _, err := s.Build(rels, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := e.Instantiate(sum, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, err := e.NumSolutions(p)
		if err != nil {
			t.Fatal(err)
		}
		drained := len(drainResults(t, p))
		t.Logf("%s over %d atoms: %d results", s.Kind, len(s.Edges), drained)
		if n != drained || n == 0 {
			t.Errorf("%s over %d atoms: NumSolutions %d, Run drained %d", s.Kind, len(s.Edges), n, drained)
		}
	}
}
