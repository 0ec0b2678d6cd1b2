package decomp

import (
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestIdleOneBagPlanHoldsNoSort: the Runs of a one-bag plan share one
// sort of the bag while some Run holds it, and once none does, a
// collection reclaims it, so an idle plan keeps no sort resident. A Run
// after that sorts anew and gives the same answers.
func TestIdleOneBagPlanHoldsNoSort(t *testing.T) {
	g := workload.RandomGraph(14, 90, workload.UniformWeights(), 4)
	p, err := PrepareTriangle([3]*relation.Relation{g.Edges, g.Edges, g.Edges}, sum)
	if err != nil {
		t.Fatal(err)
	}
	var first []core.Result
	// The iterators live in this function's frame only.
	sorted := func() weak.Pointer[heap.Ranked] {
		a, b := runPlan(t, p, core.Lazy), runPlan(t, p, core.Lazy)
		first = core.Collect(a, 0)
		ra, rb := a.(*sortedIter).ranks, b.(*sortedIter).ranks
		if ra != rb {
			t.Fatal("two Runs of one plan sort the bag twice")
		}
		return weak.Make(ra)
	}()
	if len(first) < 10 {
		t.Fatalf("%d triangles, too few to show anything", len(first))
	}
	runtime.GC()
	if sorted.Value() != nil {
		t.Error("the bag's sort outlives every Run across a collection")
	}
	again := core.Collect(runPlan(t, p, core.Lazy), 0)
	if !slices.EqualFunc(again, first, func(x, y core.Result) bool { return x.Weight == y.Weight && slices.Equal(x.Tuple, y.Tuple) }) {
		t.Error("the answers differ after the sort was rebuilt")
	}
}

// TestOneBagRowBytes is a doubling sweep over what a one-bag plan keeps
// resident per bag row: after a collection, with no iterator open, the
// heap the plan holds beyond its inputs stays within the row's values
// and weight (arity·8 + 8 B) plus a fixed slack for the chunk and page
// tables and the plan's own few objects, as the input doubles three
// times. A tuple header per row would add 24 B and fail it.
func TestOneBagRowBytes(t *testing.T) {
	const (
		arity = 3
		slack = 4
	)
	limit := float64(arity*8 + 8 + slack)
	// A random graph of n edges on v vertices has about (n/v)³ directed
	// triangles, so v grows by 2^⅔ a step for the bag to double with n.
	for i, v := range []int{200, 317, 504, 800} {
		n := 4000 << i
		g := workload.RandomGraph(v, n, workload.UniformWeights(), 5)
		rels := [3]*relation.Relation{g.Edges, g.Edges, g.Edges}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p, err := PrepareTriangle(rels, sum)
		if err != nil {
			t.Fatal(err)
		}
		// A Run builds the bag's shared sort; once it is dropped, the
		// collection below reclaims the sort with the iterator.
		func() { core.Collect(runPlan(t, p, core.Lazy), 10) }()
		runtime.GC()
		runtime.ReadMemStats(&after)
		rows := p.Stats.TotalMaterialized
		per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(rows)
		runtime.KeepAlive(p)
		runtime.KeepAlive(rels)
		t.Logf("n = %d: %d bag rows, %.2f resident B a row (limit %.0f)", n, rows, per, limit)
		if rows < 5000 {
			t.Fatalf("n = %d: %d bag rows, too few to amortise the plan's fixed objects", n, rows)
		}
		if per > limit {
			t.Errorf("n = %d: a one-bag plan keeps %.2f B per bag row, want ≤ %.0f", n, per, limit)
		}
	}
}
