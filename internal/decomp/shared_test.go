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
