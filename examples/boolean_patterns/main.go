// Boolean and counting pattern queries (§1 and Part 2 of the tutorial):
// "is there any 4-cycle?" and "how many triangles?" answered without
// materialising results, plus FAQ-style semiring aggregates over a join
// tree — the O(n) alternatives to full evaluation.
package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

func main() {
	// A directed hub graph: every pairwise join is quadratic, yet there
	// is no directed 4-cycle at all (the E2 separator instance).
	inst := workload.FourCycleHub(4000, workload.UniformWeights(), 7)
	edges := inst.Rels[0]
	fmt.Printf("hub graph: %d edges\n", edges.Len())

	q := repro.NewQuery().
		Rel("E1", []string{"A", "B"}, edges.Tuples, edges.Weights).
		Rel("E2", []string{"B", "C"}, edges.Tuples, edges.Weights).
		Rel("E3", []string{"C", "D"}, edges.Tuples, edges.Weights).
		Rel("E4", []string{"D", "A"}, edges.Tuples, edges.Weights)

	start := time.Now()
	p, err := repro.Compile(q)
	if err != nil {
		panic(err)
	}
	empty, err := p.IsEmpty()
	if err != nil {
		panic(err)
	}
	fmt.Printf("any directed 4-cycle? %v  (answered in %v — binary plans need seconds here)\n",
		!empty, time.Since(start))

	// Counting over an acyclic query without materialising: a 3-path
	// over a random graph, counted by the semiring fold over the reduced,
	// grouped atoms of its dynamic program.
	g := workload.RandomGraph(2000, 20000, workload.UniformWeights(), 3)
	h := hypergraph.Path(3)
	rels := []*relation.Relation{g.Edges, g.Edges, g.Edges}
	yq, err := yannakakis.NewQuery(h, rels)
	if err != nil {
		panic(err)
	}
	start = time.Now()
	plan, err := dp.NewPlan(yq)
	if err != nil {
		panic(err)
	}
	count := plan.Eval(dp.CountingSemiring(), func(_, _ int, _ float64) float64 { return 1 })
	fmt.Printf("3-edge paths in the random graph: %.0f  (counted in %v, zero results materialised)\n",
		count, time.Since(start))

	start = time.Now()
	best := plan.Eval(dp.MinTropicalSemiring(), nil)
	fmt.Printf("lightest 3-edge path weight: %.4f  (min-sum semiring, %v)\n", best, time.Since(start))

	// Cross-check with the engine: the exact count must match the
	// semiring count, and the first any-k result the semiring optimum.
	q2 := repro.NewQuery().
		Rel("E1", []string{"A", "B"}, g.Edges.Tuples, g.Edges.Weights).
		Rel("E2", []string{"B", "C"}, g.Edges.Tuples, g.Edges.Weights).
		Rel("E3", []string{"C", "D"}, g.Edges.Tuples, g.Edges.Weights)
	p2, err := repro.Compile(q2)
	if err != nil {
		panic(err)
	}
	n, err := p2.Count()
	if err != nil {
		panic(err)
	}
	if float64(n) != count {
		fail("Count = %d, the semiring count %.0f", n, count)
	}
	fmt.Printf("Prepared.Count agrees: %d\n", n)
	top, err := p2.TopK(1)
	if err != nil {
		panic(err)
	}
	// Both sum the same weights, possibly in another order.
	if len(top) == 0 || math.Abs(top[0].Weight-best) > 1e-9 {
		fail("any-k top-1 %v, the min-sum semiring %.4f", top, best)
	}
	fmt.Printf("any-k top-1 weight agrees: %.4f\n", top[0].Weight)
}

// fail reports a disagreement between the semiring fold and the engine
// and exits non-zero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "boolean_patterns: "+format+"\n", args...)
	os.Exit(1)
}
