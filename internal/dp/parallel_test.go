package dp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// planFixtures builds one aggregate-independent plan per interesting
// tree shape: a wide star (maximum level width), a random bushy tree
// (mixed widths and depths), and a path (minimum width — the worst
// case for level parallelism, so the degenerate schedule is covered
// too).
func planFixtures(t *testing.T) map[string]*Plan {
	t.Helper()
	out := make(map[string]*Plan)
	for name, inst := range map[string]*workload.Instance{
		"star":       workload.Star(6, 200, 12, workload.UniformWeights(), 7),
		"randomtree": workload.RandomTree(9, 150, 10, workload.UniformWeights(), 11),
		"path":       workload.Path(4, 180, 14, workload.UniformWeights(), 13),
	} {
		q, err := yannakakis.NewQuery(inst.H, inst.Rels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := NewPlan(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = p
	}
	return out
}

// assertSameTDP compares two instantiations bit for bit: π arrays,
// group partitions and their BestPi, child maps, and the
// derived top weight and solution count.
func assertSameTDP(t *testing.T, label string, got, want *TDP) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.Nodes), len(want.Nodes))
	}
	for pos := range want.Nodes {
		g, w := got.Nodes[pos], want.Nodes[pos]
		if !reflect.DeepEqual(g.Pi, w.Pi) {
			t.Fatalf("%s: node %d Pi differs", label, pos)
		}
		if !reflect.DeepEqual(g.Groups, w.Groups) || !reflect.DeepEqual(g.BestPi, w.BestPi) {
			t.Fatalf("%s: node %d Groups or BestPi differ", label, pos)
		}
		if !reflect.DeepEqual(g.ChildGroup, w.ChildGroup) {
			t.Fatalf("%s: node %d grouping maps differ", label, pos)
		}
	}
	if !want.Empty() {
		if got.TopWeight() != want.TopWeight() {
			t.Fatalf("%s: TopWeight %g != %g", label, got.TopWeight(), want.TopWeight())
		}
	}
	gc, gerr := got.counts.get(got.Nodes)
	wc, werr := want.counts.get(want.Nodes)
	if gerr != nil || werr != nil || !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: counts differ (%v, %v)", label, gerr, werr)
	}
}

// TestInstantiateParallelBitIdentical checks the dp-level contract: the
// level-synchronized parallel π pass produces exactly the sequential
// instantiation — same π arrays, BestPi, counts — for worker
// counts {1, 2, GOMAXPROCS} under every ranking aggregate.
func TestInstantiateParallelBitIdentical(t *testing.T) {
	aggs := []ranking.Aggregate{
		ranking.SumCost, ranking.SumBenefit, ranking.MaxCost,
		ranking.MinBenefit, ranking.ProductCost,
	}
	for name, plan := range planFixtures(t) {
		for _, agg := range aggs {
			want, err := plan.Instantiate(agg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				got, err := plan.Instantiate(agg, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				assertSameTDP(t, name+"/"+agg.Name(), got, want)
			}
		}
	}
}

// TestNewPlanParallelBitIdentical checks that a plan built with the
// per-node grouping fan-out equals the sequential build: same reduced
// relations, groupings, child maps, and schema.
func TestNewPlanParallelBitIdentical(t *testing.T) {
	for name, inst := range map[string]*workload.Instance{
		"star":       workload.Star(6, 200, 12, workload.UniformWeights(), 7),
		"randomtree": workload.RandomTree(9, 150, 10, workload.UniformWeights(), 11),
	} {
		q, err := yannakakis.NewQuery(inst.H, inst.Rels)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
			got, err := NewPlan(q, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.outAttrs, want.outAttrs) || !reflect.DeepEqual(got.levels, want.levels) {
				t.Fatalf("%s/w=%d: schema or levels differ", name, workers)
			}
			for pos := range want.nodes {
				g, w := got.nodes[pos], want.nodes[pos]
				if !reflect.DeepEqual(g.Rel.Attrs, w.Rel.Attrs) ||
					!reflect.DeepEqual(g.Rel.Tuples, w.Rel.Tuples) ||
					!reflect.DeepEqual(g.Rel.Weights, w.Rel.Weights) {
					t.Fatalf("%s/w=%d: node %d reduced relation differs", name, workers, pos)
				}
				if !reflect.DeepEqual(g.Groups, w.Groups) || !reflect.DeepEqual(g.ChildGroup, w.ChildGroup) {
					t.Fatalf("%s/w=%d: node %d grouping differs", name, workers, pos)
				}
			}
		}
	}
}

// countdownCtx reports cancellation after Err has been consulted a
// fixed number of times — deterministic mid-pass cancellation.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestInstantiateCancellation checks that both build steps honor their
// context: pre-canceled and mid-pass countdown cancellation each fail
// with context.Canceled and return no result, at several worker counts.
func TestInstantiateCancellation(t *testing.T) {
	inst := workload.RandomTree(9, 150, 10, workload.UniformWeights(), 11)
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := plan.Instantiate(ranking.SumCost, WithContext(canceled), WithWorkers(workers)); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled Instantiate (w=%d): got %v, want context.Canceled", workers, err)
		}
		if _, err := NewPlan(q, WithContext(canceled), WithWorkers(workers)); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled NewPlan (w=%d): got %v, want context.Canceled", workers, err)
		}

		// Mid-pass: allow a few checks, then cancel between node tasks.
		mid := &countdownCtx{Context: context.Background()}
		mid.remaining.Store(3)
		if _, err := plan.Instantiate(ranking.SumCost, WithContext(mid), WithWorkers(workers)); !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-pass Instantiate cancel (w=%d): got %v, want context.Canceled", workers, err)
		}
		mid = &countdownCtx{Context: context.Background()}
		mid.remaining.Store(3)
		if _, err := NewPlan(q, WithContext(mid), WithWorkers(workers)); !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-pass NewPlan cancel (w=%d): got %v, want context.Canceled", workers, err)
		}
	}
}

// TestTotalTuples checks the threshold input: the sum of reduced node
// sizes.
func TestTotalTuples(t *testing.T) {
	rels := pathRels(
		[][3]float64{{1, 10, 1}, {2, 20, 2}},
		[][3]float64{{10, 100, 3}, {20, 200, 4}},
	)
	q, err := yannakakis.NewQuery(hypergraph.Path(2), rels)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, n := range plan.nodes {
		want += n.Rel.Len()
	}
	if got := plan.TotalTuples(); got != want || got != 4 {
		t.Fatalf("TotalTuples = %d, want %d (= 4: nothing dangles)", got, want)
	}
}
