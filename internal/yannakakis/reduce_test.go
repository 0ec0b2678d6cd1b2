package yannakakis

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/join"
	"repro/internal/relation"
)

// textbookReduce is the reference the package's sweeps are checked
// against: the two semi-join sweeps of the full reducer written as two
// plain loops over the tree's DFS preorder, with no levels, workers or
// predecessor. It returns the bottom-up relations and the fully
// reduced ones.
func textbookReduce(q *Query) (bu, fin []*relation.Relation) {
	bu = make([]*relation.Relation, len(q.Rels))
	order := q.Tree.Order
	for oi := len(order) - 1; oi >= 0; oi-- {
		u := order[oi]
		bu[u] = q.Atom(u)
		for _, c := range q.Tree.Children[u] {
			bu[u] = join.SemiJoin(bu[u], bu[c])
		}
	}
	fin = append([]*relation.Relation(nil), bu...)
	for _, u := range order {
		if p := q.Tree.Parent[u]; p >= 0 {
			fin[u] = join.SemiJoin(bu[u], fin[p])
		}
	}
	return bu, fin
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
// element-wise content-identical to the textbook reducer's bottom-up
// relations on the updated relations, including danglers that a batch
// revives or kills, on path and star trees, sequentially and on a
// worker pool.
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
				want, _ := textbookReduce(q)
				for u := 0; u < l; u++ {
					if !relation.SameContent(cold[u], want[u]) || !coldDirty[u] {
						t.Fatalf("%s workers=%d step %d: reduction of node %d from no predecessor differs from the textbook reducer", sh.name, workers, step, u)
					}
					if !relation.SameContent(got[u], want[u]) {
						t.Fatalf("%s workers=%d step %d: bottom-up relation %d differs from the textbook reducer", sh.name, workers, step, u)
					}
					if !dirty[u] && got[u] != old[u] {
						t.Fatalf("%s workers=%d step %d: clean node %d does not alias the old epoch", sh.name, workers, step, u)
					}
					if dirty[u] && relation.SameContent(got[u], old[u]) {
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
	want, _ := textbookReduce(q)
	for u := 0; u < 4; u++ {
		if !relation.SameContent(got[u], want[u]) {
			t.Fatalf("bottom-up relation %d differs from the textbook reducer", u)
		}
		if u == 0 {
			// Node 0's own relation keeps the dangler (a leaf) or sheds
			// it (a node with children); either way the dirty flag must
			// agree.
			if dirty[u] != !relation.SameContent(got[u], old[u]) {
				t.Error("appended node's dirty flag disagrees with its content")
			}
			continue
		}
		if dirty[u] {
			t.Errorf("node %d dirty after a dangling append", u)
		}
		if got[u] != old[u] {
			t.Errorf("node %d does not alias the old epoch after a dangling append", u)
		}
	}
}

// TestFullReduceWithMatchesTextbook checks the top-down sweep that
// FullReduceWith adds to ReduceKeep: its relations are element-wise
// content-identical to the textbook full reducer's, on path and star
// trees with danglers at every node, sequentially and on a worker pool.
func TestFullReduceWithMatchesTextbook(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{hypergraph.Path(5), hypergraph.Star(4)} {
		rng := rand.New(rand.NewSource(5))
		rels := make([]*relation.Relation, len(h.Edges))
		for i := range rels {
			r := relation.New("R"+string(rune('1'+i)), "a", "b")
			for j := 0; j < 30; j++ {
				r.AddWeighted(rng.Float64(), relation.Value(rng.Intn(10)), relation.Value(rng.Intn(10)))
			}
			rels[i] = r
		}
		q := mustQuery(t, h, rels)
		bu, want := textbookReduce(q)
		dropped := 0
		for u := range want {
			dropped += bu[u].Len() - want[u].Len()
		}
		if dropped == 0 {
			t.Fatalf("%s: the top-down sweep drops no row, the check proves nothing", h)
		}
		for _, workers := range []int{1, 4} {
			got, err := q.FullReduceWith(context.Background(), workers)
			if err != nil {
				t.Fatal(err)
			}
			for u := range want {
				if !relation.SameContent(got[u], want[u]) {
					t.Errorf("%s workers=%d: fully reduced relation %d differs from the textbook reducer", h, workers, u)
				}
			}
		}
	}
}

// TestReduceErrors: a canceled context fails the bottom-up sweep and the
// full reducer with ctx.Err() and no relations, and a predecessor or a
// changed-flag vector of the wrong length is an error.
func TestReduceErrors(t *testing.T) {
	h := hypergraph.Path(3)
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		rels[i] = relation.New("R"+string(rune('1'+i)), "a", "b")
		rels[i].AddWeighted(1, 1, 1)
	}
	q := mustQuery(t, h, rels)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if red, err := q.FullReduceWith(ctx, 2); !errors.Is(err, context.Canceled) || red != nil {
		t.Errorf("canceled FullReduceWith: %d relations, err %v", len(red), err)
	}
	if red, dirty, err := q.ReduceDelta(ctx, 2, nil, nil); !errors.Is(err, context.Canceled) || red != nil || dirty != nil {
		t.Errorf("canceled ReduceDelta: %d relations, err %v", len(red), err)
	}
	old, err := q.ReduceKeep(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.ReduceDelta(context.Background(), 1, old[:2], make([]bool, 3)); err == nil {
		t.Error("ReduceDelta accepted a predecessor of 2 relations for 3 nodes")
	}
	if _, _, err := q.ReduceDelta(context.Background(), 1, old, make([]bool, 2)); err == nil {
		t.Error("ReduceDelta accepted 2 changed flags for 3 nodes")
	}
}
