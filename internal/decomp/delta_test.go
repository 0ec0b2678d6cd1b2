package decomp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/workload"
)

// batch returns r with a few random rows dropped and a few appended.
func batch(rng *rand.Rand, r *relation.Relation, domain int) *relation.Relation {
	out := relation.New(r.Name, r.Attrs...)
	for i, tp := range r.Tuples {
		if rng.Intn(10) > 0 {
			out.AddTuple(tp, r.Weights[i])
		}
	}
	for a := 1 + rng.Intn(4); a > 0; a-- {
		out.AddWeighted(rng.Float64(), relation.Value(rng.Intn(domain)), relation.Value(rng.Intn(domain)))
	}
	return out
}

// assertSameBags checks that two GHD plans memoise content-identical
// bags in the same order.
func assertSameBags(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	if len(got.ghd.bags) != len(want.ghd.bags) || !reflect.DeepEqual(got.ghd.deps, want.ghd.deps) {
		t.Fatalf("%s: bag count or dependency sets differ: %v vs %v", label, got.ghd.deps, want.ghd.deps)
	}
	for bi, w := range want.ghd.bags {
		g := got.ghd.bags[bi]
		if g.Name != w.Name || !reflect.DeepEqual(g.Attrs, w.Attrs) || !reflect.DeepEqual(g.Tuples, w.Tuples) || !reflect.DeepEqual(g.Weights, w.Weights) {
			t.Fatalf("%s: bag %d differs from the cold prepare's", label, bi)
		}
	}
}

// TestGHDDeltaMatchesCold chains random batches through Shape.Prepare
// (with the previous plan as predecessor) on every GHD fixture shape and checks after each step that the
// patched plan equals PrepareGHDWith on the same relations: bags,
// Stats, and the full ranked output.
func TestGHDDeltaMatchesCold(t *testing.T) {
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 7)
	for name, pairs := range ghdShapes {
		for _, workers := range []int{1, 3} {
			rng := rand.New(rand.NewSource(23))
			edges, rels := graphAtoms(g, pairs)
			d, err := hypergraph.New(edges...).Decompose()
			if err != nil {
				t.Fatal(err)
			}
			old, err := PrepareGHDWith(d, edges, rels, sum, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; step++ {
				label := fmt.Sprintf("%s/w=%d/step %d", name, workers, step)
				newRels := append([]*relation.Relation(nil), rels...)
				changed := make([]bool, len(rels))
				i := rng.Intn(len(rels))
				newRels[i], changed[i] = batch(rng, rels[i], 8), true
				got, ds, err := old.shape.Prepare(newRels, sum, old, changed, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				want, err := PrepareGHDWith(d, edges, newRels, sum)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBags(t, label, got, want)
				assertSamePlan(t, label, want, got)
				shared := 0
				for bi := range got.ghd.bags {
					if got.ghd.bags[bi] == old.ghd.bags[bi] {
						shared++
					}
				}
				if ds.Bags != len(d.Bags) || ds.Bags-ds.BagsRebuilt != shared || ds.TreeNodes != len(d.Bags) {
					t.Fatalf("%s: stats %+v, but %d of %d bags are shared with the old plan", label, ds, shared, len(d.Bags))
				}
				rels, old = newRels, got
			}
		}
	}
}

// TestGHDDeltaProjectionSourceShift is the case where no input of a bag
// changed and the bag must be rebuilt all the same: the middle bag of a
// 5-cycle's fan decomposition takes its fill variable A0 from the
// smaller of R1 and R5, and a delta that shrinks R5 below R1 moves that
// pick.
func TestGHDDeltaProjectionSourceShift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(name string, n int) *relation.Relation {
		r := relation.New(name, "x", "y")
		for i := 0; i < n; i++ {
			r.AddWeighted(rng.Float64(), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)))
		}
		return r
	}
	edges := []hypergraph.Edge{
		hypergraph.E("R1", "A0", "A1"), hypergraph.E("R2", "A1", "A2"), hypergraph.E("R3", "A2", "A3"),
		hypergraph.E("R4", "A3", "A4"), hypergraph.E("R5", "A4", "A0"),
	}
	rels := []*relation.Relation{mk("R1", 20), mk("R2", 25), mk("R3", 25), mk("R4", 25), mk("R5", 30)}
	d := &hypergraph.Decomposition{
		Bags:     [][]string{{"A0", "A1", "A2"}, {"A0", "A2", "A3"}, {"A0", "A3", "A4"}},
		Contains: [][]int{{0, 1}, {2}, {3, 4}},
	}
	old, err := PrepareGHDWith(d, edges, rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 0}; !reflect.DeepEqual(old.ghd.deps[1], want) {
		t.Fatalf("middle bag reads edges %v, want %v (R3 and the projection of R1)", old.ghd.deps[1], want)
	}

	// Shrink R5 to 10 rows: smaller than R1 now.
	newRels := append([]*relation.Relation(nil), rels...)
	newRels[4] = relation.New("R5", "x", "y")
	for i := 0; i < 10; i++ {
		newRels[4].AddTuple(rels[4].Tuples[i], rels[4].Weights[i])
	}
	changed := []bool{false, false, false, false, true}
	got, ds, err := old.shape.Prepare(newRels, sum, old, changed)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 4}; !reflect.DeepEqual(got.ghd.deps[1], want) {
		t.Fatalf("middle bag reads edges %v after the delta, want %v", got.ghd.deps[1], want)
	}
	if got.ghd.bags[0] != old.ghd.bags[0] {
		t.Error("bag 0 (R1, R2) was rebuilt although nothing it reads changed")
	}
	if got.ghd.bags[1] == old.ghd.bags[1] {
		t.Error("middle bag was reused although its projection source moved")
	}
	if ds.BagsRebuilt != 2 {
		t.Errorf("%d bags rebuilt, want 2 (the middle bag and R5's)", ds.BagsRebuilt)
	}
	want, err := PrepareGHDWith(d, edges, newRels, sum)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBags(t, "shift", got, want)
	assertSamePlan(t, "shift", want, got)
}

// treeBuildCancelCtx reports Canceled from the moment the prepare's
// trace shows a span named after: "plan-build" appears once every bag
// task has been dispatched and the bag tree's build has begun under the
// prepare's own context, "instantiate" once its π pass has.
type treeBuildCancelCtx struct {
	context.Context
	trace *obs.Trace
	after string
}

func (c *treeBuildCancelCtx) Err() error {
	var has func(spans []*obs.SpanJSON) bool
	has = func(spans []*obs.SpanJSON) bool {
		for _, s := range spans {
			if s.Name == c.after || has(s.Children) {
				return true
			}
		}
		return false
	}
	if has(c.trace.Snapshot().Spans) {
		return context.Canceled
	}
	return nil
}

// TestPrepareCancelsBagTree pins that a prepare stays cancelable past
// its bags: a context that turns Canceled only after the last bag task
// must still fail the prepare, because the bag tree's reduction,
// grouping and π pass run under it too.
func TestPrepareCancelsBagTree(t *testing.T) {
	g := workload.RandomGraph(10, 60, workload.UniformWeights(), 29)
	rels6 := make([]*relation.Relation, 6)
	for i := range rels6 {
		rels6[i] = g.Edges
	}
	edges, rels := graphAtoms(g, ghdShapes["bowtie"])
	d, err := hypergraph.New(edges...).Decompose()
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []string{"plan-build", "instantiate"} {
		late := func() context.Context {
			ctx, tr := obs.NewTrace(context.Background(), obs.NewID(), time.Now())
			return &treeBuildCancelCtx{Context: ctx, trace: tr, after: after}
		}
		if _, err := PrepareCycleSingleTree(rels6, sum, WithContext(late()), WithWorkers(2)); !errors.Is(err, context.Canceled) {
			t.Errorf("6-cycle prepare canceled at %s: got %v, want context.Canceled", after, err)
		}
		if _, err := PrepareGHDWith(d, edges, rels, sum, WithContext(late()), WithWorkers(2)); !errors.Is(err, context.Canceled) {
			t.Errorf("bowtie GHD prepare canceled at %s: got %v, want context.Canceled", after, err)
		}
	}
}
