package repro

// Benchmarks for the parallel preparation subsystem. Prepare latency on
// multi-bag shapes is dominated by independent bag materialisations, so
// WithParallelism(n) at GOMAXPROCS >= 4 should show a >= 2x speedup of
// parallel over sequential on the bowtie and the 5-cycle fan below
// (compare the sequential/parallel sub-benchmark pairs). On a single
// core the two coincide — the parallel path degrades to the sequential
// driver with identical output either way.
//
//	go test -bench 'BenchmarkPrepare(Bowtie|FiveCycle)' -benchtime 3x .

import (
	"context"
	"testing"

	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// benchBowtie builds a bowtie (two triangles sharing A) over a graph
// sized so bag materialisation dominates prepare time.
func benchBowtie(n int) *Query {
	g := workload.RandomGraph(n/10, n, workload.UniformWeights(), 17)
	q := NewQuery()
	for i, vs := range [][]string{
		{"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "D"}, {"D", "E"}, {"E", "A"},
	} {
		q.Rel("E"+string(rune('1'+i)), vs, g.Edges.Tuples, g.Edges.Weights)
	}
	return q
}

// benchFiveCycle builds a 5-cycle, routed to the fhtw-2 fan plan with
// three independent bags.
func benchFiveCycle(n int) *Query {
	g := workload.RandomGraph(n/10, n, workload.UniformWeights(), 17)
	q := NewQuery()
	for i, vs := range [][]string{
		{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "E"}, {"E", "A"},
	} {
		q.Rel("E"+string(rune('1'+i)), vs, g.Edges.Tuples, g.Edges.Weights)
	}
	return q
}

// benchPrepare measures the full first-run prepare path — bag
// materialisation + tree compilation for cyclic shapes, plan build +
// T-DP instantiation for acyclic ones — at the given parallelism. Each
// iteration compiles a fresh handle so the per-ranking cache never
// short-circuits the work being measured.
func benchPrepare(b *testing.B, mk func(int) *Query, n, workers int) {
	b.Helper()
	q := mk(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Compile(q, WithParallelism(workers))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.TopK(1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAcyclicStar builds a wide acyclic star (8 relations sharing a
// hub), the shape whose level-synchronized T-DP instantiation the
// parallel acyclic prepare path fans out best on.
func benchAcyclicStar(n int) *Query {
	inst := workload.Star(8, n, n/20+1, workload.UniformWeights(), 19)
	q := NewQuery()
	for i, r := range inst.Rels {
		q.Rel(r.Name, inst.H.Edges[i].Vars, r.Tuples, r.Weights)
	}
	return q
}

func BenchmarkPrepareBowtieSequential(b *testing.B) { benchPrepare(b, benchBowtie, 3000, 1) }
func BenchmarkPrepareBowtieParallel(b *testing.B)   { benchPrepare(b, benchBowtie, 3000, 0) }

func BenchmarkPrepareFiveCycleSequential(b *testing.B) { benchPrepare(b, benchFiveCycle, 2000, 1) }
func BenchmarkPrepareFiveCycleParallel(b *testing.B)   { benchPrepare(b, benchFiveCycle, 2000, 0) }

func BenchmarkPrepareAcyclicStarSequential(b *testing.B) { benchPrepare(b, benchAcyclicStar, 20000, 1) }
func BenchmarkPrepareAcyclicStarParallel(b *testing.B)   { benchPrepare(b, benchAcyclicStar, 20000, 0) }

// --- Skew guardrail -------------------------------------------------
//
// The heavy-hitter pathology the skew-aware partitioner exists for:
// a triangle join over a hub graph, where one first-variable value
// owns the bulk of the work. Equal-count first-variable chunking would
// pin that value whole onto one worker, so its wall-clock would approach
// sequential; the skew-aware planner (MaterializeParallel) subdivides it
// at the second variable. The guardrail: SkewAware must beat Sequential
// on this fixture (given idle cores), and TestSkewTaskShares pins the
// chunked-vs-skew-aware gap machine-independently.
//
//	go test -bench 'BenchmarkSkewTriangle' -benchtime 3x .

// benchSkewAtoms builds triangle atoms over a three-layer rotor graph:
// hub 0 → every left vertex, complete bipartite left → right, every
// right vertex → 0. Each triangle is one rotation of (0, left, right),
// so the join has 3·m·k answers and the single value A=0 owns a full
// third of all work — far past any per-task budget — while the m+k
// light values share the rest. Enough answers per input row that join
// work, not trie sorting, dominates.
func benchSkewAtoms(m, k int) []wcoj.Atom {
	mk := func(name string) *relation.Relation {
		r := relation.New(name, "src", "dst")
		add := func(a, b int64) { r.AddWeighted(float64(a)+float64(b)/1000, a, b) }
		for l := int64(1); l <= int64(m); l++ {
			add(0, l)
			for rt := int64(m + 1); rt <= int64(m+k); rt++ {
				add(l, rt)
			}
		}
		for rt := int64(m + 1); rt <= int64(m+k); rt++ {
			add(rt, 0)
		}
		return r
	}
	return []wcoj.Atom{
		{Rel: mk("R"), Vars: []string{"A", "B"}},
		{Rel: mk("S"), Vars: []string{"B", "C"}},
		{Rel: mk("T"), Vars: []string{"C", "A"}},
	}
}

func benchSkewTriangle(b *testing.B, strategy func(context.Context, []wcoj.Atom, []string, ranking.Aggregate, int) (*relation.Relation, *wcoj.Instr, error)) {
	b.Helper()
	atoms := benchSkewAtoms(300, 60)
	order := []string{"A", "B", "C"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := strategy(context.Background(), atoms, order, ranking.SumCost{}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSkewTaskShares is the machine-independent half of the guardrail:
// wall-clock on a multi-core box is bounded below by the largest single
// task's share of the join work, and on the rotor fixture the hub value
// A=0 owns a third of it. Equal-count first-variable chunking cannot
// split a single value, so its critical share stays pinned near 1/3
// whatever the worker count; the skew-aware planner must land well
// under that. (The wall-clock benchmarks above only show the gap when
// GOMAXPROCS > 1 — this assertion holds everywhere.)
func TestSkewTaskShares(t *testing.T) {
	atoms := benchSkewAtoms(300, 60)
	chunked, skewAware, err := wcoj.TaskShares(atoms, []string{"A", "B", "C"}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 32 chunks over ~361 first-variable values: perfect balance would
	// be ~0.03 per chunk, but the chunk holding the hub owns over a
	// quarter of all work (a third of the emits, diluted by the light
	// values' seek overhead).
	if chunked < 0.25 {
		t.Errorf("chunked max task share = %.3f, want >= 0.25 (hub pinned whole)", chunked)
	}
	if skewAware >= chunked/2 {
		t.Errorf("skew-aware max task share = %.3f, want < half of chunked %.3f", skewAware, chunked)
	}
}

func BenchmarkSkewTriangleSkewAware(b *testing.B) {
	benchSkewTriangle(b, wcoj.MaterializeParallel)
}

func BenchmarkSkewTriangleSequential(b *testing.B) {
	benchSkewTriangle(b, func(_ context.Context, atoms []wcoj.Atom, order []string, agg ranking.Aggregate, _ int) (*relation.Relation, *wcoj.Instr, error) {
		return wcoj.Materialize(atoms, order, agg)
	})
}
