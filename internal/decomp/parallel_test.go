package decomp

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
)

// runPlan starts one ranked enumeration over a prepared plan — the
// tests' one way from a Prepare* result to an iterator.
func runPlan(t testing.TB, p *Plan, v core.Variant) core.Iterator {
	t.Helper()
	it, err := p.Run(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// drainResults drains the plan's full enumeration, returning tuples and
// weights in emission order for exact (not approximate) comparison —
// the bit-identity contract of parallel preparation.
func drainResults(t *testing.T, p *Plan) []core.Result {
	t.Helper()
	it := runPlan(t, p, core.Lazy)
	defer it.Close()
	out := core.Collect(it, 0)
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSamePlan checks that two prepared plans are observationally
// identical: same Stats and the exact same result sequence (tuples and
// weights, in order).
func assertSamePlan(t *testing.T, label string, seq, par *Plan) {
	t.Helper()
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Fatalf("%s: Stats differ:\nsequential %+v\nparallel   %+v", label, seq.Stats, par.Stats)
	}
	sr, pr := drainResults(t, seq), drainResults(t, par)
	if len(sr) != len(pr) {
		t.Fatalf("%s: %d results sequential, %d parallel", label, len(sr), len(pr))
	}
	for i := range sr {
		if sr[i].Weight != pr[i].Weight {
			t.Fatalf("%s: rank %d weight %v sequential, %v parallel", label, i, sr[i].Weight, pr[i].Weight)
		}
		if !reflect.DeepEqual(sr[i].Tuple, pr[i].Tuple) {
			t.Fatalf("%s: rank %d tuple %v sequential, %v parallel", label, i, sr[i].Tuple, pr[i].Tuple)
		}
	}
}

// TestPrepareGHDWithParallelDeterminism prepares every GHD fixture
// shape sequentially and with several worker counts; Stats and the full
// ranked output must be identical.
func TestPrepareGHDWithParallelDeterminism(t *testing.T) {
	g := workload.RandomGraph(9, 45, workload.UniformWeights(), 11)
	for name, pairs := range ghdShapes {
		edges, rels := graphAtoms(g, pairs)
		d, err := hypergraph.New(edges...).DecomposeCosted(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seq, err := PrepareGHDWith(d, edges, rels, sum)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{2, 4, 16} {
			par, err := PrepareGHDWith(d, edges, rels, sum, WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			assertSamePlan(t, name, seq, par)
		}
	}
}

// TestCanonicalPreparesParallelDeterminism covers the canonical cyclic
// plans: triangle (intra-bag only), both 4-cycle plans, and the l-cycle
// fan for l = 5, 6.
func TestCanonicalPreparesParallelDeterminism(t *testing.T) {
	g := workload.RandomGraph(14, 160, workload.UniformWeights(), 3)
	par := []PrepareOption{WithWorkers(4)}

	var three [3]*relation.Relation
	for i := range three {
		three[i] = g.Edges
	}
	seqT, err := PrepareTriangle(three, sum)
	if err != nil {
		t.Fatal(err)
	}
	parT, err := PrepareTriangle(three, sum, par...)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePlan(t, "triangle", seqT, parT)

	four := fourRels(g)
	seqS, err := PrepareFourCycleSubmodular(four, sum)
	if err != nil {
		t.Fatal(err)
	}
	parS, err := PrepareFourCycleSubmodular(four, sum, par...)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePlan(t, "4-cycle-submodular", seqS, parS)

	seq1, err := PrepareFourCycleSingleTree(four, sum)
	if err != nil {
		t.Fatal(err)
	}
	par1, err := PrepareFourCycleSingleTree(four, sum, par...)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePlan(t, "4-cycle-single-tree", seq1, par1)

	for _, l := range []int{5, 6} {
		rels := make([]*relation.Relation, l)
		for i := range rels {
			rels[i] = g.Edges
		}
		seqC, err := PrepareCycleSingleTree(rels, sum)
		if err != nil {
			t.Fatal(err)
		}
		parC, err := PrepareCycleSingleTree(rels, sum, par...)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePlan(t, "cycle-fan", seqC, parC)
	}
}

// TestParallelDeterminismGOMAXPROCS1 re-runs a multi-bag parallel
// prepare with GOMAXPROCS pinned to 1: goroutines interleave on one P
// and the plan must still match.
func TestParallelDeterminismGOMAXPROCS1(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	g := workload.RandomGraph(10, 60, workload.UniformWeights(), 19)
	edges, rels := graphAtoms(g, ghdShapes["bowtie"])
	d, err := hypergraph.New(edges...).DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := PrepareGHDWith(d, edges, rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	par, err := PrepareGHDWith(d, edges, rels, sum, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	assertSamePlan(t, "bowtie@GOMAXPROCS=1", seq, par)
}

// TestBagSizesPerBag pins the per-bag Stats layout: one inner slice per
// tree with one entry per bag, including shapes with more than two bags
// per tree (which the old fixed-pair layout misreported).
func TestBagSizesPerBag(t *testing.T) {
	g := workload.RandomGraph(12, 80, workload.UniformWeights(), 23)
	l := 6 // fan plan: l-2 = 4 bags in ONE tree
	rels := make([]*relation.Relation, l)
	for i := range rels {
		rels[i] = g.Edges
	}
	p, err := PrepareCycleSingleTree(rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stats.BagSizes) != 1 || len(p.Stats.BagSizes[0]) != l-2 {
		t.Fatalf("6-cycle fan BagSizes = %v, want one tree with %d bags", p.Stats.BagSizes, l-2)
	}
	total := 0
	for _, n := range p.Stats.BagSizes[0] {
		total += n
	}
	if total != p.Stats.TotalMaterialized {
		t.Fatalf("BagSizes sum %d != TotalMaterialized %d", total, p.Stats.TotalMaterialized)
	}

	var four [4]*relation.Relation
	for i := range four {
		four[i] = g.Edges
	}
	ps, err := PrepareFourCycleSubmodular(four, sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Stats.BagSizes) != 3 {
		t.Fatalf("submodular BagSizes = %v, want 3 trees", ps.Stats.BagSizes)
	}
	for ti, bs := range ps.Stats.BagSizes {
		if len(bs) != 2 {
			t.Fatalf("submodular tree %d has %d bag entries, want 2", ti, len(bs))
		}
	}
}

// countdownCtx reports cancellation after Err has been consulted a
// fixed number of times — deterministic mid-prepare cancellation.
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

func TestPrepareCancellation(t *testing.T) {
	g := workload.RandomGraph(10, 60, workload.UniformWeights(), 29)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	edges, rels := graphAtoms(g, ghdShapes["bowtie"])
	d, err := hypergraph.New(edges...).DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareGHDWith(d, edges, rels, sum, WithContext(canceled), WithWorkers(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled GHD prepare: got %v, want context.Canceled", err)
	}

	// Mid-prepare: allow a few checks, then cancel between bag tasks.
	mid := &countdownCtx{Context: context.Background()}
	mid.remaining.Store(2)
	if _, err := PrepareGHDWith(d, edges, rels, sum, WithContext(mid), WithWorkers(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-prepare GHD cancel: got %v, want context.Canceled", err)
	}

	rels5 := make([]*relation.Relation, 5)
	for i := range rels5 {
		rels5[i] = g.Edges
	}
	if _, err := PrepareCycleSingleTree(rels5, sum, WithContext(canceled), WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled cycle prepare: got %v, want context.Canceled", err)
	}
	var four [4]*relation.Relation
	for i := range four {
		four[i] = g.Edges
	}
	if _, err := PrepareFourCycleSubmodular(four, sum, WithContext(canceled), WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled submodular prepare: got %v, want context.Canceled", err)
	}
}

// TestParallelDeterminismAllAggregates spot-checks one multi-bag shape
// under every ranking aggregate.
func TestParallelDeterminismAllAggregates(t *testing.T) {
	g := workload.RandomGraph(9, 50, workload.UniformWeights(), 31)
	edges, rels := graphAtoms(g, ghdShapes["fused-triangles"])
	d, err := hypergraph.New(edges...).DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range ranking.All {
		seq, err := PrepareGHDWith(d, edges, rels, agg)
		if err != nil {
			t.Fatalf("%s: %v", agg.Name(), err)
		}
		par, err := PrepareGHDWith(d, edges, rels, agg, WithWorkers(3))
		if err != nil {
			t.Fatalf("%s: %v", agg.Name(), err)
		}
		assertSamePlan(t, agg.Name(), seq, par)
	}
}
