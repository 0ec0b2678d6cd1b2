package dp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/yannakakis"
)

var sum = ranking.SumCost{}

func mustBuild(t *testing.T, h *hypergraph.Hypergraph, rels []*relation.Relation, agg ranking.Aggregate) *TDP {
	t.Helper()
	q, err := yannakakis.NewQuery(h, rels)
	if err != nil {
		t.Fatal(err)
	}
	tdp, err := Build(q, agg)
	if err != nil {
		t.Fatal(err)
	}
	return tdp
}

func pathRels(data ...[][3]float64) []*relation.Relation {
	rels := make([]*relation.Relation, len(data))
	for i, d := range data {
		r := relation.New("R"+string(rune('1'+i)), "X", "Y")
		for _, row := range d {
			r.AddWeighted(row[2], relation.Value(row[0]), relation.Value(row[1]))
		}
		rels[i] = r
	}
	return rels
}

func TestBuildPathShape(t *testing.T) {
	rels := pathRels(
		[][3]float64{{1, 10, 1}, {2, 20, 2}},
		[][3]float64{{10, 100, 3}, {20, 200, 4}},
	)
	tdp := mustBuild(t, hypergraph.Path(2), rels, sum)
	if len(tdp.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(tdp.Nodes))
	}
	if tdp.Nodes[0].Parent != -1 {
		t.Error("first preorder node must be the root")
	}
	if tdp.Nodes[1].Parent != 0 {
		t.Error("second node's parent must be the root")
	}
	if len(tdp.OutAttrs) != 3 {
		t.Errorf("OutAttrs = %v, want 3 vars", tdp.OutAttrs)
	}
}

func TestTopWeightSimple(t *testing.T) {
	// Best solution: (1,10) w=1 + (10,101) w=1 → 2.
	rels := pathRels(
		[][3]float64{{1, 10, 1}, {1, 11, 5}},
		[][3]float64{{10, 100, 10}, {10, 101, 1}, {11, 100, 0}},
	)
	tdp := mustBuild(t, hypergraph.Path(2), rels, sum)
	if tdp.Empty() {
		t.Fatal("should not be empty")
	}
	if got := tdp.TopWeight(); got != 2 {
		t.Fatalf("TopWeight = %g, want 2", got)
	}
}

func TestTopWeightMaxAggregate(t *testing.T) {
	// min-max: best solution minimises the max weight: (1,10)+(10,101)
	// has max(1,1)=1... weights: R1(1,10) w=1; R2(10,101) w=1 → 1.
	rels := pathRels(
		[][3]float64{{1, 10, 1}, {1, 11, 0.5}},
		[][3]float64{{10, 101, 1}, {11, 100, 3}},
	)
	tdp := mustBuild(t, hypergraph.Path(2), rels, ranking.MaxCost{})
	if got := tdp.TopWeight(); got != 1 {
		t.Fatalf("TopWeight(max) = %g, want 1", got)
	}
}

// Completing a prefix greedily — each node takes the best row of the
// group its parent's row selects — yields the top solution.
func TestGreedyCompleteProducesTopSolution(t *testing.T) {
	rels := pathRels(
		[][3]float64{{1, 10, 1}, {1, 11, 5}, {2, 10, 2}},
		[][3]float64{{10, 100, 10}, {10, 101, 1}, {11, 100, 0}},
	)
	tdp := mustBuild(t, hypergraph.Path(2), rels, sum)
	rows := make([]int32, len(tdp.Nodes))
	for pos, n := range tdp.Nodes {
		g := &n.Groups[tdp.GroupFor(pos, rows)]
		rows[pos] = g.Rows[g.BestIdx]
	}
	w := tdp.SolutionWeight(rows)
	if math.Abs(w-tdp.TopWeight()) > 1e-12 {
		t.Fatalf("greedy solution weight %g != TopWeight %g", w, tdp.TopWeight())
	}
}

func TestEmptyTDP(t *testing.T) {
	rels := pathRels(
		[][3]float64{{1, 10, 0}},
		[][3]float64{{99, 100, 0}},
	)
	tdp := mustBuild(t, hypergraph.Path(2), rels, sum)
	if !tdp.Empty() {
		t.Error("disconnected instance should be empty")
	}
	if tdp.NumSolutions() != 0 {
		t.Error("NumSolutions should be 0")
	}
}

func TestGroupsPartitionRows(t *testing.T) {
	rels := pathRels(
		[][3]float64{{1, 10, 0}, {2, 10, 0}, {3, 11, 0}},
		[][3]float64{{10, 5, 0}, {10, 6, 0}, {11, 7, 0}},
	)
	tdp := mustBuild(t, hypergraph.Path(2), rels, sum)
	for pos, n := range tdp.Nodes {
		seen := make(map[int32]bool)
		total := 0
		for gi, g := range n.Groups {
			for _, r := range g.Rows {
				if seen[r] {
					t.Fatalf("node %d: row %d in two groups", pos, r)
				}
				seen[r] = true
				if n.GroupOfRow[r] != int32(gi) {
					t.Fatalf("node %d: GroupOfRow mismatch", pos)
				}
				total++
			}
		}
		if total != n.Rel.Len() {
			t.Fatalf("node %d: groups cover %d of %d rows", pos, total, n.Rel.Len())
		}
	}
}

func TestChildGroupConsistency(t *testing.T) {
	// Star: every child's group must match the parent row's key.
	h := hypergraph.Star(3)
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		r := relation.New("R", "X", "Y")
		for j := relation.Value(0); j < 9; j++ {
			r.AddWeighted(float64(j), j%3, j+relation.Value(i)*10)
		}
		rels[i] = r
	}
	tdp := mustBuild(t, h, rels, sum)
	root := tdp.Nodes[0]
	for row, tp := range root.Rel.Tuples {
		for ci, c := range root.Children {
			child := tdp.Nodes[c]
			gi := root.ChildGroup[ci][row]
			shared := root.Rel.SharedAttrs(child.Rel)
			pCols, _ := root.Rel.AttrIndexes(shared)
			cCols, _ := child.Rel.AttrIndexes(shared)
			for _, crow := range child.Groups[gi].Rows {
				for k := range shared {
					if child.Rel.Tuples[crow][cCols[k]] != tp[pCols[k]] {
						t.Fatalf("child group row does not join with parent row")
					}
				}
			}
		}
	}
}

// Property: π of a row equals the true minimum solution weight of the
// subtree rooted there (verified by brute force on small paths).
func TestPiIsSubtreeOptimumProperty(t *testing.T) {
	f := func(d1, d2 []uint8) bool {
		if len(d1) == 0 || len(d2) == 0 {
			return true
		}
		r1 := relation.New("R1", "X", "Y")
		for i, v := range d1 {
			r1.AddWeighted(float64(i%7), relation.Value(v%3), relation.Value(v%4))
		}
		r2 := relation.New("R2", "X", "Y")
		for i, v := range d2 {
			r2.AddWeighted(float64(i%5), relation.Value(v%4), relation.Value(v%3))
		}
		q, err := yannakakis.NewQuery(hypergraph.Path(2), []*relation.Relation{r1, r2})
		if err != nil {
			return false
		}
		tdp, err := Build(q, sum)
		if err != nil {
			return false
		}
		// For the leaf node (preorder position 1), π must equal the tuple
		// weight; for the root, π = w + best joining leaf π.
		leaf := tdp.Nodes[1]
		for row := range leaf.Rel.Tuples {
			if leaf.Pi[row] != leaf.Rel.Weights[row] {
				return false
			}
		}
		root := tdp.Nodes[0]
		for row := range root.Rel.Tuples {
			gi := root.ChildGroup[0][row]
			best := math.Inf(1)
			for _, crow := range leaf.Groups[gi].Rows {
				if leaf.Pi[crow] < best {
					best = leaf.Pi[crow]
				}
			}
			want := root.Rel.Weights[row] + best
			if math.Abs(root.Pi[row]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBuildRejectsCartesianTreeEdge(t *testing.T) {
	// Two relations with no shared vars: hypergraph R(A,B), S(C,D) is
	// technically "acyclic" per GYO only if an edge contains the other's
	// shared vars — here shared = ∅, so the witness check passes
	// trivially and the tree edge would be cartesian. Build must reject.
	h := hypergraph.New(hypergraph.E("R", "A", "B"), hypergraph.E("S", "C", "D"))
	r := relation.New("R", "X", "Y")
	r.Add(1, 2)
	s := relation.New("S", "X", "Y")
	s.Add(3, 4)
	q, err := yannakakis.NewQuery(h, []*relation.Relation{r, s})
	if err != nil {
		t.Skip("query building rejected disconnected hypergraph")
	}
	if _, err := Build(q, sum); err == nil {
		t.Error("Build should reject cartesian tree edges")
	}
}

func TestEmitAlignsWithOutAttrs(t *testing.T) {
	rels := pathRels(
		[][3]float64{{7, 8, 0}},
		[][3]float64{{8, 9, 0}},
	)
	tdp := mustBuild(t, hypergraph.Path(2), rels, sum)
	tup := tdp.Emit([]int32{0, 0})
	vals := map[string]relation.Value{}
	for i, a := range tdp.OutAttrs {
		vals[a] = tup[i]
	}
	if vals["A0"] != 7 || vals["A1"] != 8 || vals["A2"] != 9 {
		t.Fatalf("Emit = %v with attrs %v", tup, tdp.OutAttrs)
	}
}

func TestPlanInstantiatePerAggregate(t *testing.T) {
	rels := pathRels(
		[][3]float64{{1, 10, 1}, {1, 11, 5}},
		[][3]float64{{10, 100, 10}, {10, 101, 1}, {11, 100, 0}},
	)
	q, err := yannakakis.NewQuery(hypergraph.Path(2), rels)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	tSum, err := plan.Instantiate(ranking.SumCost{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tSum.OutAttrs) != 3 {
		t.Fatalf("OutAttrs = %v", tSum.OutAttrs)
	}
	tMax, err := plan.Instantiate(ranking.MaxCost{})
	if err != nil {
		t.Fatal(err)
	}
	// Instantiations share the reduced relations and groupings but carry
	// independent π / group-best state.
	if tSum.Nodes[0].Rel != tMax.Nodes[0].Rel {
		t.Error("instantiations should share reduced relations")
	}
	if got := tSum.TopWeight(); got != 2 {
		t.Fatalf("sum TopWeight = %g, want 2", got)
	}
	if got := tMax.TopWeight(); got != 1 {
		t.Fatalf("max TopWeight = %g, want 1 (bottleneck of 1⊕1)", got)
	}
	// A later instantiation must not have disturbed the first.
	if got := tSum.TopWeight(); got != 2 {
		t.Fatalf("sum TopWeight changed after max instantiation: %g", got)
	}
	// Both must agree with Build on the same aggregate.
	ref := mustBuild(t, hypergraph.Path(2), rels, sum)
	if ref.TopWeight() != tSum.TopWeight() {
		t.Fatal("Instantiate disagrees with Build")
	}
}
