package yannakakis

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/join"
	"repro/internal/relation"
)

// textbookReduce is the reference the package's one reducer is checked
// against: the two semi-join sweeps of the full reducer written as two
// plain loops over the tree's DFS preorder, with no levels, workers or
// predecessor.
func textbookReduce(q *Query) *Reduction {
	bu := make([]*relation.Relation, len(q.Rels))
	order := q.Tree.Order
	for oi := len(order) - 1; oi >= 0; oi-- {
		u := order[oi]
		bu[u] = q.queryRel(u)
		for _, c := range q.Tree.Children[u] {
			bu[u] = join.SemiJoin(bu[u], bu[c])
		}
	}
	fin := append([]*relation.Relation(nil), bu...)
	for _, u := range order {
		if p := q.Tree.Parent[u]; p >= 0 {
			fin[u] = join.SemiJoin(bu[u], fin[p])
		}
	}
	return &Reduction{BottomUp: bu, Final: fin}
}

// applyBatch returns rels with a delta applied to relation i: drop
// rows whose index is in del, then append app rows. The original
// relations are shared for every other index (the aliasing ApplyDelta
// relies on).
func applyBatch(rels []*relation.Relation, i int, del map[int]bool, app [][2]relation.Value, appW []float64) ([]*relation.Relation, []bool) {
	out := append([]*relation.Relation(nil), rels...)
	r := relation.New(rels[i].Name, rels[i].Attrs...)
	for j, t := range rels[i].Tuples {
		if !del[j] {
			r.AddTuple(t, rels[i].Weights[j])
		}
	}
	for j, t := range app {
		r.AddWeighted(appW[j], t[0], t[1])
	}
	out[i] = r
	changed := make([]bool, len(rels))
	changed[i] = true
	return out, changed
}

// TestReduceDeltaMatchesReduceKeep drives random append/delete batches
// through ReduceDelta and asserts that both of its inputs — the old
// epoch as predecessor, and no predecessor (ReduceKeep) — come out
// element-wise content-identical to the textbook reducer on the updated
// relations, including danglers that a batch revives or kills, on path
// and star trees, sequentially and on a worker pool.
func TestReduceDeltaMatchesReduceKeep(t *testing.T) {
	ctx := context.Background()
	shapes := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"path5", hypergraph.Path(5)},
		{"star4", hypergraph.Star(4)},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(11))
			l := len(sh.h.Edges)
			rels := make([]*relation.Relation, l)
			for i, e := range sh.h.Edges {
				r := relation.New("R"+string(rune('1'+i)), "a", "b")
				for j := 0; j < 40; j++ {
					r.AddWeighted(rng.Float64(), relation.Value(rng.Intn(12)), relation.Value(rng.Intn(12)))
				}
				rels[i] = r
				_ = e
			}
			old, err := mustQuery(t, sh.h, rels).ReduceKeep(ctx, workers)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 8; step++ {
				i := rng.Intn(l)
				del := map[int]bool{}
				for d := rng.Intn(4); d > 0; d-- {
					del[rng.Intn(rels[i].Len())] = true
				}
				var app [][2]relation.Value
				var appW []float64
				for a := rng.Intn(4); a > 0; a-- {
					app = append(app, [2]relation.Value{relation.Value(rng.Intn(14)), relation.Value(rng.Intn(14))})
					appW = append(appW, rng.Float64())
				}
				newRels, changed := applyBatch(rels, i, del, app, appW)
				q := mustQuery(t, sh.h, newRels)
				got, dirty, err := q.ReduceDelta(ctx, workers, old, changed)
				if err != nil {
					t.Fatal(err)
				}
				cold, coldDirty, err := q.ReduceDelta(ctx, workers, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := textbookReduce(q)
				for u := 0; u < l; u++ {
					if !sameContent(cold.BottomUp[u], want.BottomUp[u]) || !sameContent(cold.Final[u], want.Final[u]) || !coldDirty[u] {
						t.Fatalf("%s workers=%d step %d: reduction of node %d from no predecessor differs from the textbook reducer", sh.name, workers, step, u)
					}
					if !sameContent(got.BottomUp[u], want.BottomUp[u]) {
						t.Fatalf("%s workers=%d step %d: bottom-up relation %d differs from the textbook reducer", sh.name, workers, step, u)
					}
					if !sameContent(got.Final[u], want.Final[u]) {
						t.Fatalf("%s workers=%d step %d: final relation %d differs from the textbook reducer", sh.name, workers, step, u)
					}
					if !dirty[u] && got.Final[u] != old.Final[u] {
						t.Fatalf("%s workers=%d step %d: clean node %d does not alias the old epoch", sh.name, workers, step, u)
					}
					if dirty[u] && sameContent(got.Final[u], old.Final[u]) {
						t.Fatalf("%s workers=%d step %d: node %d flagged dirty but content is unchanged", sh.name, workers, step, u)
					}
				}
				rels, old = newRels, got
			}
		}
	}
}

// TestReduceDeltaStopsCleanPaths pins the short-circuit: an append
// that dangles (its join value exists nowhere else) must leave every
// node but the appended one aliasing the old epoch.
func TestReduceDeltaStopsCleanPaths(t *testing.T) {
	h := hypergraph.Path(4)
	rels := make([]*relation.Relation, 4)
	for i := 0; i < 4; i++ {
		r := relation.New("R"+string(rune('1'+i)), "a", "b")
		for v := relation.Value(0); v < 10; v++ {
			r.AddWeighted(float64(v), v, v)
		}
		rels[i] = r
	}
	old, err := mustQuery(t, h, rels).ReduceKeep(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Value 99 appears only in the appended row of relation 0: the row
	// is dangling, so every reduced relation is unchanged.
	newRels, changed := applyBatch(rels, 0, nil, [][2]relation.Value{{99, 99}}, []float64{1})
	q := mustQuery(t, h, newRels)
	got, dirty, err := q.ReduceDelta(context.Background(), 1, old, changed)
	if err != nil {
		t.Fatal(err)
	}
	want := textbookReduce(q)
	for u := 0; u < 4; u++ {
		if !sameContent(got.Final[u], want.Final[u]) {
			t.Fatalf("final relation %d differs from the textbook reducer", u)
		}
		if u == 0 {
			// Node 0's own final may keep the dangler (root) or shed it
			// (non-root); either way the dirty flag must agree.
			if dirty[u] != !sameContent(got.Final[u], old.Final[u]) {
				t.Error("appended node's dirty flag disagrees with its content")
			}
			continue
		}
		if dirty[u] {
			t.Errorf("node %d dirty after a dangling append", u)
		}
		if got.Final[u] != old.Final[u] {
			t.Errorf("node %d does not alias the old epoch after a dangling append", u)
		}
	}
}
