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
		if !reflect.DeepEqual(g.Groups, w.Groups) || !reflect.DeepEqual(g.ChildGroup, w.ChildGroup) {
			t.Fatalf("%s: node %d grouping differs", label, pos)
		}
	}
}

// TestDeltaMatchesCold chains random batches through NewPlanDelta and
// InstantiateDelta and checks, after every step, that the patched plan,
// the counts it carries forward and every patched T-DP equal the ones
// built from no predecessor on the same relations, and that plan the
// two-pass reference (referencePlan) — for every tree
// shape, ranking aggregate and worker count — and that what the stats
// call clean really is shared with the old epoch.
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
			// Counted once here, the counts are carried forward by every
			// step below.
			if _, err := old.NumSolutions(); err != nil {
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
				assertMatchesReference(t, label, want, referencePlan(t, q))
				if st.Nodes != len(got.nodes) || st.Regrouped > st.Nodes {
					t.Fatalf("%s: stats %+v for %d nodes", label, st, len(got.nodes))
				}
				for pos, c := range st.Changed {
					if !c && got.nodes[pos].Rel != old.nodes[pos].Rel {
						t.Fatalf("%s: clean node %d does not share the old reduced relation", label, pos)
					}
				}
				gotC, oldC := mustBuiltCounts(t, label, got), mustBuiltCounts(t, label, old)
				wantC, err := want.counts.get(want.nodes)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotC, wantC) {
					t.Fatalf("%s: carried-forward counts differ from a cold plan's", label)
				}
				fresh := 0
				for pos := range gotC {
					if !sharedCount(gotC[pos], oldC[pos]) {
						fresh++
					}
				}
				if st.Recounted != fresh {
					t.Fatalf("%s: %d nodes reported recounted, %d do not share the old counts", label, st.Recounted, fresh)
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

// mustBuiltCounts returns p's prefix sums, failing the test unless
// they are built.
func mustBuiltCounts(t *testing.T, label string, p *Plan) [][]int64 {
	t.Helper()
	if !p.counts.done.Load() {
		t.Fatalf("%s: the plan holds no counts", label)
	}
	return p.counts.cum
}

// sharedCount reports whether two count arrays are one allocation.
func sharedCount(a, b []int64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestDeltaPinnedCounts pins the nodes a delta recomputes on a 4-path,
// for the π pass and for the counts the old plan holds, and the count
// arrays a leaf delta on a star shares.
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
	// Reading the counts builds them, so every delta below carries them
	// forward.
	if _, err := oldT.NumSolutions(); err != nil {
		t.Fatal(err)
	}
	oldC := mustBuiltCounts(t, "old plan", old)
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
		// The dangling row counts one solution of the leaf's subtree, in
		// a group no parent row selects: the parent's totals stand.
		if st.Recounted != 2 {
			t.Errorf("recounted %d nodes, want 2 (the leaf and its parent)", st.Recounted)
		}
		if n, err := p.NumSolutions(); err != nil || n != 10 {
			t.Errorf("NumSolutions = %d, %v; want 10", n, err)
		}
	})

	t.Run("append at the root", func(t *testing.T) {
		// A second (5, 5) at the root joins every child, so only the
		// root's rows change. Its children keep their rows and groups —
		// the new row maps into them — and are the old nodes, shared:
		// one node regroups. (The two-pass build regrouped the root's
		// child too, 2 nodes, since a parent-row → group map hangs off
		// both ends.)
		newRels, changed := appendRow(rels, q.Tree.Order[0], 0, 5, 5)
		p, st, err := NewPlanDelta(mustQuery(t, h, newRels), old, changed)
		if err != nil {
			t.Fatal(err)
		}
		for pos, c := range st.Changed {
			if c != (pos == 0) {
				t.Errorf("node %d: changed=%v, want only the root changed", pos, c)
			}
		}
		if st.Regrouped != 1 {
			t.Errorf("regrouped %d nodes, want 1 (the root)", st.Regrouped)
		}
		for _, c := range p.nodes[0].Children {
			if p.nodes[c] != old.nodes[c] {
				t.Errorf("the root's child %d is not the old node", c)
			}
		}
		if n, err := p.NumSolutions(); err != nil || n != 11 {
			t.Errorf("NumSolutions = %d, %v; want 11", n, err)
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
		if st.Recounted != len(onPath) {
			t.Errorf("recounted %d nodes, want the %d on the leaf-to-root path", st.Recounted, len(onPath))
		}
		c := mustBuiltCounts(t, "delta plan", p)
		for pos := range c {
			if fresh := !sharedCount(c[pos], oldC[pos]); fresh != onPath[pos] {
				t.Errorf("node %d: recounted=%v, on the leaf-to-root path=%v", pos, fresh, onPath[pos])
			}
		}
		if got.TopWeight() >= oldT.TopWeight() {
			t.Errorf("top weight %g did not improve on %g", got.TopWeight(), oldT.TopWeight())
		}
	})

	t.Run("leaf delta on a star", func(t *testing.T) {
		// A centre C(X1..X4) of one row with a leaf Li(Xi, Yi) of four
		// rows on each of its variables: 4^4 solutions, and leaves that
		// are siblings whichever atom GYO makes the root.
		edges := []hypergraph.Edge{hypergraph.E("C", "X1", "X2", "X3", "X4")}
		centre := relation.New("C", "X1", "X2", "X3", "X4")
		centre.Add(0, 0, 0, 0)
		srels := []*relation.Relation{centre}
		for i := 1; i <= 4; i++ {
			x, y := fmt.Sprintf("X%d", i), fmt.Sprintf("Y%d", i)
			edges = append(edges, hypergraph.E(fmt.Sprintf("L%d", i), x, y))
			r := relation.New(fmt.Sprintf("L%d", i), x, y)
			for j := relation.Value(0); j < 4; j++ {
				r.Add(0, j)
			}
			srels = append(srels, r)
		}
		sh := hypergraph.New(edges...)
		sq := mustQuery(t, sh, srels)
		old, err := NewPlan(sq)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := old.NumSolutions(); err != nil || n != 4*4*4*4 {
			t.Fatalf("star: NumSolutions = %d, %v; want 4^4", n, err)
		}
		oldC := mustBuiltCounts(t, "old star", old)
		// The deepest preorder position is a leaf; its parent has leaf
		// siblings of it below.
		leaf := len(old.nodes) - 1
		parent := old.nodes[leaf].Parent
		if len(old.nodes[parent].Children) < 2 {
			t.Fatalf("leaf %d has no siblings in the join tree", leaf)
		}
		onPath := map[int]bool{}
		for pos := leaf; pos >= 0; pos = old.nodes[pos].Parent {
			onPath[pos] = true
		}
		newRels, changed := appendRow(srels, sq.Tree.Order[leaf], 1, 0, 99)
		p, st, err := NewPlanDelta(mustQuery(t, sh, newRels), old, changed)
		if err != nil {
			t.Fatal(err)
		}
		if st.Recounted != len(onPath) {
			t.Errorf("recounted %d nodes, want the %d on the leaf-to-root path", st.Recounted, len(onPath))
		}
		c := mustBuiltCounts(t, "delta star", p)
		siblings := 0
		for _, pos := range old.nodes[parent].Children {
			if pos == leaf {
				continue
			}
			siblings++
			if !sharedCount(c[pos], oldC[pos]) {
				t.Errorf("sibling leaf %d does not share the old count array", pos)
			}
		}
		if siblings == 0 {
			t.Fatal("no sibling leaf checked")
		}
		if n, err := p.NumSolutions(); err != nil || n != 4*4*4*5 {
			t.Errorf("NumSolutions = %d, %v; want 4^3·5", n, err)
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
