package dp

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// deltaInstances are the tree shapes of planFixtures, as instances a
// test can apply batches to.
func deltaInstances() map[string]*workload.Instance {
	return map[string]*workload.Instance{
		"star":       workload.Star(6, 200, 12, workload.UniformWeights(), 7),
		"randomtree": workload.RandomTree(9, 150, 10, workload.UniformWeights(), 11),
		"path":       workload.Path(4, 180, 14, workload.UniformWeights(), 13),
	}
}

// randomBatch applies a random append/delete batch to one or two of
// rels (values drawn a little past the domain, so some appended rows
// dangle) and returns the new relations — unchanged ones shared — with
// the per-relation changed flags.
func randomBatch(rng *rand.Rand, rels []*relation.Relation, domain int) ([]*relation.Relation, []bool) {
	out := append([]*relation.Relation(nil), rels...)
	changed := make([]bool, len(rels))
	for n := 1 + rng.Intn(2); n > 0; n-- {
		i := rng.Intn(len(rels))
		del := map[int]bool{}
		for d := rng.Intn(5); d > 0; d-- {
			del[rng.Intn(out[i].Len())] = true
		}
		r := relation.New(out[i].Name, out[i].Attrs...)
		for j, tp := range out[i].Tuples {
			if !del[j] {
				r.AddTuple(tp, out[i].Weights[j])
			}
		}
		for a := rng.Intn(5); a > 0; a-- {
			r.AddWeighted(rng.Float64(), relation.Value(rng.Intn(domain+3)), relation.Value(rng.Intn(domain+3)))
		}
		out[i], changed[i] = r, true
	}
	return out, changed
}

func mustQuery(t *testing.T, h *hypergraph.Hypergraph, rels []*relation.Relation) *yannakakis.Query {
	t.Helper()
	q, err := yannakakis.NewQuery(h, rels)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// assertSamePlanFields compares two plans field by field: schema, emit
// map, levels, tree wiring, reduced relations, groupings and child maps.
func assertSamePlanFields(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	if !reflect.DeepEqual(got.outAttrs, want.outAttrs) || !reflect.DeepEqual(got.emits, want.emits) || !reflect.DeepEqual(got.levels, want.levels) {
		t.Fatalf("%s: schema, emit map or levels differ", label)
	}
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.nodes), len(want.nodes))
	}
	for pos := range want.nodes {
		g, w := got.nodes[pos], want.nodes[pos]
		if g.Parent != w.Parent || !reflect.DeepEqual(g.Children, w.Children) {
			t.Fatalf("%s: node %d tree wiring differs", label, pos)
		}
		if !reflect.DeepEqual(g.Rel.Attrs, w.Rel.Attrs) || !reflect.DeepEqual(g.Rel.Tuples, w.Rel.Tuples) || !reflect.DeepEqual(g.Rel.Weights, w.Rel.Weights) {
			t.Fatalf("%s: node %d reduced relation differs", label, pos)
		}
		if !reflect.DeepEqual(g.Groups, w.Groups) || !reflect.DeepEqual(g.GroupOfRow, w.GroupOfRow) || !reflect.DeepEqual(g.ChildGroup, w.ChildGroup) {
			t.Fatalf("%s: node %d grouping differs", label, pos)
		}
	}
}

// TestDeltaMatchesCold chains random batches through NewPlanDelta and
// InstantiateDelta and checks, after every step, that the patched plan
// and every patched T-DP equal the ones built from no predecessor on
// the same relations — for every tree shape, ranking aggregate and
// worker count — and that what the stats call clean really is shared
// with the old epoch.
func TestDeltaMatchesCold(t *testing.T) {
	aggs := []ranking.Aggregate{
		ranking.SumCost, ranking.SumBenefit, ranking.MaxCost,
		ranking.MinBenefit, ranking.ProductCost,
	}
	for name, inst := range deltaInstances() {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			rng := rand.New(rand.NewSource(17))
			rels := inst.Rels
			old, err := NewPlan(mustQuery(t, inst.H, rels), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			oldT := make([]*TDP, len(aggs))
			for ai, agg := range aggs {
				if oldT[ai], err = old.Instantiate(agg, WithWorkers(workers)); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 6; step++ {
				label := fmt.Sprintf("%s/w=%d/step %d", name, workers, step)
				newRels, changed := randomBatch(rng, rels, 14)
				q := mustQuery(t, inst.H, newRels)
				got, st, err := NewPlanDelta(q, old, changed, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewPlan(q)
				if err != nil {
					t.Fatal(err)
				}
				assertSamePlanFields(t, label, got, want)
				if st.Nodes != len(got.nodes) || st.Regrouped > st.Nodes {
					t.Fatalf("%s: stats %+v for %d nodes", label, st, len(got.nodes))
				}
				for pos, c := range st.Changed {
					if !c && got.nodes[pos].Rel != old.nodes[pos].Rel {
						t.Fatalf("%s: clean node %d does not share the old reduced relation", label, pos)
					}
				}
				for ai, agg := range aggs {
					gotT, rec, err := got.InstantiateDelta(agg, oldT[ai], st.Changed, WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					wantT, err := want.Instantiate(agg)
					if err != nil {
						t.Fatal(err)
					}
					assertSameTDP(t, label+"/"+agg.Name(), gotT, wantT)
					fresh := 0
					for pos := range gotT.Nodes {
						if gotT.Nodes[pos] != oldT[ai].Nodes[pos] {
							fresh++
						}
					}
					if rec != fresh {
						t.Fatalf("%s/%s: %d nodes reported recomputed, %d are not shared with the old T-DP", label, agg.Name(), rec, fresh)
					}
					oldT[ai] = gotT
				}
				rels, old = newRels, got
			}
		}
	}
}

// diagonalPath4 is a 4-path whose relations each hold (v, v) with
// weight v for v in [0, 10): every row joins, nothing dangles.
func diagonalPath4() []*relation.Relation {
	rels := make([]*relation.Relation, 4)
	for i := range rels {
		r := relation.New(fmt.Sprintf("R%d", i+1), "X", "Y")
		for v := relation.Value(0); v < 10; v++ {
			r.AddWeighted(float64(v), v, v)
		}
		rels[i] = r
	}
	return rels
}

// appendRow returns rels with one row appended to relation i, plus the
// changed flags.
func appendRow(rels []*relation.Relation, i int, w float64, vals ...relation.Value) ([]*relation.Relation, []bool) {
	out := append([]*relation.Relation(nil), rels...)
	out[i] = rels[i].Clone()
	out[i].AddWeighted(w, vals...)
	changed := make([]bool, len(rels))
	changed[i] = true
	return out, changed
}

// TestDeltaPinnedCounts pins three counts on a 4-path.
func TestDeltaPinnedCounts(t *testing.T) {
	h := hypergraph.Path(4)
	rels := diagonalPath4()
	q := mustQuery(t, h, rels)
	old, err := NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	oldT, err := old.Instantiate(sum)
	if err != nil {
		t.Fatal(err)
	}
	// The deepest preorder position is a leaf; its ancestors up to the
	// root are the leaf-to-root path.
	leaf := len(old.nodes) - 1
	onPath := map[int]bool{}
	for pos := leaf; pos >= 0; pos = old.nodes[pos].Parent {
		onPath[pos] = true
	}
	leafEdge := q.Tree.Order[leaf]
	if len(onPath) < 3 {
		t.Fatalf("leaf-to-root path has %d nodes; the fixture should be deeper", len(onPath))
	}

	t.Run("dangling append", func(t *testing.T) {
		// Value 99 occurs nowhere else: the row joins nothing. The leaf
		// keeps it (the bottom-up sweep reduces a node by its subtree
		// alone), so only the leaf changes and is regrouped; its parent's
		// relation is unchanged, so the π pass recomputes the leaf and
		// the parent, finds the parent's group bests unchanged and stops.
		newRels, changed := appendRow(rels, leafEdge, 1, 99, 99)
		p, st, err := NewPlanDelta(mustQuery(t, h, newRels), old, changed)
		if err != nil {
			t.Fatal(err)
		}
		for pos, c := range st.Changed {
			if c != (pos == leaf) {
				t.Errorf("node %d: changed=%v, want only the leaf %d changed", pos, c, leaf)
			}
		}
		if st.Regrouped != 1 {
			t.Errorf("regrouped %d nodes, want 1", st.Regrouped)
		}
		_, rec, err := p.InstantiateDelta(sum, oldT, st.Changed)
		if err != nil {
			t.Fatal(err)
		}
		if rec != 2 {
			t.Errorf("recomputed %d nodes, want 2 (the leaf and its parent)", rec)
		}
	})

	t.Run("append at the leaf end", func(t *testing.T) {
		// A row that joins key 0 and undercuts every weight: the leaf's
		// content changes, and the new best propagates through every
		// ancestor's group bests up to the root — and nowhere else.
		leafRel := old.nodes[leaf].Rel
		vals := []relation.Value{50, 50}
		vals[leafRel.AttrIndex(leafRel.SharedAttrs(old.nodes[old.nodes[leaf].Parent].Rel)[0])] = 0
		newRels, changed := appendRow(rels, leafEdge, -100, vals...)
		p, st, err := NewPlanDelta(mustQuery(t, h, newRels), old, changed)
		if err != nil {
			t.Fatal(err)
		}
		got, rec, err := p.InstantiateDelta(sum, oldT, st.Changed)
		if err != nil {
			t.Fatal(err)
		}
		if rec != len(onPath) {
			t.Errorf("recomputed %d nodes, want the %d on the leaf-to-root path", rec, len(onPath))
		}
		for pos := range got.Nodes {
			if fresh := got.Nodes[pos] != oldT.Nodes[pos]; fresh != onPath[pos] {
				t.Errorf("node %d: recomputed=%v, on the leaf-to-root path=%v", pos, fresh, onPath[pos])
			}
		}
		if got.TopWeight() >= oldT.TopWeight() {
			t.Errorf("top weight %g did not improve on %g", got.TopWeight(), oldT.TopWeight())
		}
	})

	t.Run("wrong-length changed flags", func(t *testing.T) {
		if _, _, err := NewPlanDelta(q, old, make([]bool, 3)); err == nil {
			t.Error("NewPlanDelta accepted 3 changed flags for 4 nodes with a predecessor")
		}
		if _, _, err := NewPlanDelta(q, nil, make([]bool, 3)); err != nil {
			t.Errorf("without a predecessor the flags are ignored, got %v", err)
		}
		if _, _, err := old.InstantiateDelta(sum, oldT, make([]bool, 3)); err == nil {
			t.Error("InstantiateDelta accepted 3 changed flags for 4 nodes with a predecessor")
		}
	})
}
