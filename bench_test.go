package repro

// One benchmark per experiment table (E1–E15, indexed in the package
// comment of internal/experiments): running `go test -bench=.`
// regenerates every measured quantity at benchmark scale. The cmd/anyk-bench binary prints the full tables; these
// benchmarks time the same code paths under testing.B so allocations
// and scaling are tracked by standard tooling.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/hypergraph"
	"repro/internal/join"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/topk"
	"repro/internal/wcoj"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

var sumAgg = ranking.SumCost{}

// --- E1: triangle, binary plan vs WCOJ on the AGM-hard instance ---

func benchTriangleBinary(b *testing.B, n int) {
	inst := workload.HardTriangle(n, workload.UniformWeights(), 1)
	rels := renameAll(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.NewPlan(sumAgg, rels...).Execute()
	}
}

func benchTriangleGJ(b *testing.B, n int) {
	inst := workload.HardTriangle(n, workload.UniformWeights(), 1)
	atoms := instAtoms(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wcoj.Materialize(atoms, inst.H.Vars(), sumAgg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1TriangleBinary_n1000(b *testing.B) { benchTriangleBinary(b, 1000) }
func BenchmarkE1TriangleBinary_n2000(b *testing.B) { benchTriangleBinary(b, 2000) }
func BenchmarkE1TriangleWCOJ_n1000(b *testing.B)   { benchTriangleGJ(b, 1000) }
func BenchmarkE1TriangleWCOJ_n2000(b *testing.B)   { benchTriangleGJ(b, 2000) }

// --- E2: Boolean 4-cycle on the hub instance ---

func benchFourCycleBooleanBinary(b *testing.B, n int) {
	inst := workload.FourCycleHub(n, workload.UniformWeights(), 1)
	rels := renameAll(inst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.NewPlan(sumAgg, rels...).Execute()
	}
}

func benchFourCycleBooleanSubmodular(b *testing.B, n int) {
	inst := workload.FourCycleHub(n, workload.UniformWeights(), 1)
	var rels [4]*relation.Relation
	copy(rels[:], inst.Rels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, _, err := decomp.FourCycleSubmodular(context.Background(), rels, sumAgg, core.Lazy)
		if err != nil {
			b.Fatal(err)
		}
		it.Next()
	}
}

func BenchmarkE2FourCycleBinary_n1000(b *testing.B)     { benchFourCycleBooleanBinary(b, 1000) }
func BenchmarkE2FourCycleBinary_n2000(b *testing.B)     { benchFourCycleBooleanBinary(b, 2000) }
func BenchmarkE2FourCycleSubmodular_n1000(b *testing.B) { benchFourCycleBooleanSubmodular(b, 1000) }
func BenchmarkE2FourCycleSubmodular_n2000(b *testing.B) { benchFourCycleBooleanSubmodular(b, 2000) }

// --- E3: Yannakakis vs binary on skewed acyclic path ---

func e3Instance(n int) *yannakakis.Query {
	r1 := relation.New("R1", "X", "Y")
	r2 := relation.New("R2", "X", "Y")
	r3 := relation.New("R3", "X", "Y")
	for i := 0; i < n; i++ {
		v := relation.Value(i)
		r1.AddWeighted(0, v, 0)
		r2.AddWeighted(0, 0, v)
		r3.AddWeighted(0, relation.Value(n)+7, v)
	}
	q, err := yannakakis.NewQuery(hypergraph.Path(3), []*relation.Relation{r1, r2, r3})
	if err != nil {
		panic(err)
	}
	return q
}

func BenchmarkE3Yannakakis_n4000(b *testing.B) {
	q := e3Instance(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Evaluate(sumAgg)
	}
}

func BenchmarkE3BinaryPlan_n4000(b *testing.B) {
	q := e3Instance(4000)
	rels := renameQ(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.NewPlan(sumAgg, rels...).Execute()
	}
}

// --- E4: TA / FA / NRA access behaviour ---

func benchTopkAlgo(b *testing.B, corr workload.Correlation, algo string) {
	lists := wsToLists(workload.Lists(2, 20000, corr, 42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch algo {
		case "TA":
			topk.TA(lists, 10, topk.SumAgg{})
		case "FA":
			topk.FA(lists, 10, topk.SumAgg{})
		case "NRA":
			topk.NRA(lists, 10)
		case "Brute":
			topk.BruteForce(lists, 10, topk.SumAgg{})
		}
	}
}

func BenchmarkE4TACorrelated(b *testing.B)  { benchTopkAlgo(b, workload.Correlated, "TA") }
func BenchmarkE4TAAntiCorr(b *testing.B)    { benchTopkAlgo(b, workload.AntiCorrelated, "TA") }
func BenchmarkE4FACorrelated(b *testing.B)  { benchTopkAlgo(b, workload.Correlated, "FA") }
func BenchmarkE4NRACorrelated(b *testing.B) { benchTopkAlgo(b, workload.Correlated, "NRA") }
func BenchmarkE4BruteForce(b *testing.B)    { benchTopkAlgo(b, workload.Correlated, "Brute") }

// --- E5: rank join friendly vs adversarial ---

func benchRankJoin(b *testing.B, adversarial bool) {
	n := 20000
	r := relation.New("R", "A", "B")
	s := relation.New("S", "B", "C")
	for i := 0; i < n; i++ {
		w := 1 - float64(i)/float64(n)
		r.AddWeighted(w, relation.Value(i), relation.Value(i))
		key := relation.Value(i)
		if adversarial {
			key = relation.Value(n - 1 - i)
		}
		s.AddWeighted(w, key, relation.Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := topk.NewHRJN(topk.NewScan(r), topk.NewScan(s))
		topk.TopK(op, 1)
	}
}

func BenchmarkE5RankJoinFriendly(b *testing.B)    { benchRankJoin(b, false) }
func BenchmarkE5RankJoinAdversarial(b *testing.B) { benchRankJoin(b, true) }

// --- E6/E7/E8: any-k variants ---

func benchAnyK(b *testing.B, inst *workload.Instance, v core.Variant, k int) {
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := dp.Build(q, sumAgg)
		if err != nil {
			b.Fatal(err)
		}
		it, err := core.New(context.Background(), t, v)
		if err != nil {
			b.Fatal(err)
		}
		core.Collect(it, k)
	}
}

func pathInst(n int) *workload.Instance {
	return workload.Path(4, n, n/5+1, workload.UniformWeights(), 7)
}

func BenchmarkE6PathLazyTop1000(b *testing.B)  { benchAnyK(b, pathInst(4000), core.Lazy, 1000) }
func BenchmarkE6PathEagerTop1000(b *testing.B) { benchAnyK(b, pathInst(4000), core.Eager, 1000) }
func BenchmarkE6PathQuickTop1000(b *testing.B) { benchAnyK(b, pathInst(4000), core.Quick, 1000) }
func BenchmarkE6PathAllTop1000(b *testing.B)   { benchAnyK(b, pathInst(4000), core.All, 1000) }
func BenchmarkE6PathTake2Top1000(b *testing.B) { benchAnyK(b, pathInst(4000), core.Take2, 1000) }
func BenchmarkE6PathRecTop1000(b *testing.B)   { benchAnyK(b, pathInst(4000), core.Rec, 1000) }
func BenchmarkE6PathBatchTop1000(b *testing.B) { benchAnyK(b, pathInst(4000), core.Batch, 1000) }

func BenchmarkE7PathL6LazyFull(b *testing.B) {
	benchAnyK(b, workload.Path(6, 500, 500/3+1, workload.UniformWeights(), 13), core.Lazy, 0)
}

func BenchmarkE7PathL6RecFull(b *testing.B) {
	benchAnyK(b, workload.Path(6, 500, 500/3+1, workload.UniformWeights(), 13), core.Rec, 0)
}

func BenchmarkE7PathL6BatchFull(b *testing.B) {
	benchAnyK(b, workload.Path(6, 500, 500/3+1, workload.UniformWeights(), 13), core.Batch, 0)
}

func starInst(n int) *workload.Instance {
	return workload.Star(3, n, n/5+1, workload.UniformWeights(), 11)
}

func BenchmarkE8StarLazyTop1000(b *testing.B) { benchAnyK(b, starInst(4000), core.Lazy, 1000) }
func BenchmarkE8StarRecTop1000(b *testing.B)  { benchAnyK(b, starInst(4000), core.Rec, 1000) }

// --- E9: top-k lightest 4-cycles ---

func benchLightestCycles(b *testing.B, n, k int, batch bool) {
	g := workload.SkewedGraph(n/4+1, n, 1.2, workload.UniformWeights(), 3)
	var rels [4]*relation.Relation
	for i := range rels {
		rels[i] = g.Edges
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			it, _, err := decomp.FourCycleSingleTree(context.Background(), rels, sumAgg, core.Batch)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		} else {
			it, _, err := decomp.FourCycleSubmodular(context.Background(), rels, sumAgg, core.Lazy)
			if err != nil {
				b.Fatal(err)
			}
			core.Collect(it, k)
		}
	}
}

func BenchmarkE9LightestCyclesAnyK_n4000(b *testing.B)  { benchLightestCycles(b, 4000, 100, false) }
func BenchmarkE9LightestCyclesBatch_n4000(b *testing.B) { benchLightestCycles(b, 4000, 100, true) }

// --- E10: AGM machinery ---

func BenchmarkE10FractionalEdgeCover(b *testing.B) {
	c4 := hypergraph.Cycle(4)
	for i := 0; i < b.N; i++ {
		if _, _, err := c4.FractionalEdgeCover(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: crossover ---

func BenchmarkE11LazyTop1(b *testing.B)   { benchAnyK(b, pathInst(2000), core.Lazy, 1) }
func BenchmarkE11LazyTop10k(b *testing.B) { benchAnyK(b, pathInst(2000), core.Lazy, 10000) }
func BenchmarkE11BatchAny(b *testing.B)   { benchAnyK(b, pathInst(2000), core.Batch, 1) }

// --- E12: ranking functions ---

func benchAnyKAgg(b *testing.B, agg ranking.Aggregate) {
	inst := pathInst(2000)
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := dp.Build(q, agg)
		if err != nil {
			b.Fatal(err)
		}
		it, err := core.New(context.Background(), t, core.Lazy)
		if err != nil {
			b.Fatal(err)
		}
		core.Collect(it, 1000)
	}
}

func BenchmarkE12RankSum(b *testing.B)     { benchAnyKAgg(b, ranking.SumCost{}) }
func BenchmarkE12RankMax(b *testing.B)     { benchAnyKAgg(b, ranking.MaxCost{}) }
func BenchmarkE12RankSumDesc(b *testing.B) { benchAnyKAgg(b, ranking.SumBenefit{}) }

// --- harness sanity: the experiment tables themselves ---

func BenchmarkHarnessE10Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E10(200)
	}
}

// --- helpers ---

func renameAll(inst *workload.Instance) []*relation.Relation {
	out := make([]*relation.Relation, len(inst.Rels))
	for i, r := range inst.Rels {
		nr := relation.New(r.Name, inst.H.Edges[i].Vars...)
		nr.Tuples = r.Tuples
		nr.Weights = r.Weights
		out[i] = nr
	}
	return out
}

func renameQ(q *yannakakis.Query) []*relation.Relation {
	out := make([]*relation.Relation, len(q.Rels))
	for i, r := range q.Rels {
		nr := relation.New(r.Name, q.H.Edges[i].Vars...)
		nr.Tuples = r.Tuples
		nr.Weights = r.Weights
		out[i] = nr
	}
	return out
}

func instAtoms(inst *workload.Instance) []wcoj.Atom {
	atoms := make([]wcoj.Atom, len(inst.Rels))
	for i, r := range inst.Rels {
		atoms[i] = wcoj.Atom{Rel: r, Vars: inst.H.Edges[i].Vars}
	}
	return atoms
}

func wsToLists(ws []*workload.ScoredList) []*topk.List {
	out := make([]*topk.List, len(ws))
	for i, w := range ws {
		l, err := topk.NewList(w.IDs, w.Grades)
		if err != nil {
			panic(err)
		}
		out[i] = l
	}
	return out
}

// --- E13: Lawler delay ablation ---

func BenchmarkE13NaiveLawlerTop100(b *testing.B) {
	inst := pathInst(1000)
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := dp.Build(q, sumAgg)
		if err != nil {
			b.Fatal(err)
		}
		core.Collect(core.NewNaiveLawler(context.Background(), t), 100)
	}
}

func BenchmarkE13LazyTop100(b *testing.B) {
	benchAnyK(b, pathInst(1000), core.Lazy, 100)
}
