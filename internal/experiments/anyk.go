package experiments

import (
	"context"

	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dp"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// runVariant builds the T-DP from scratch (preprocessing is part of the
// measured time, as in the companion paper), enumerates up to k results
// (k ≤ 0 = all) and returns the delay recorder plus the result count.
func runVariant(ctx context.Context, inst *workload.Instance, agg ranking.Aggregate, v core.Variant, k int) (*stats.DelayRecorder, int) {
	rec := stats.NewDelayRecorder()
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		panic(err)
	}
	t, err := dp.Build(q, agg)
	if err != nil {
		panic(err)
	}
	it, err := core.New(ctx, t, v)
	if err != nil {
		panic(err)
	}
	defer it.Close()
	count := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		rec.Mark()
		count++
		if k > 0 && count >= k {
			break
		}
	}
	if err := it.Err(); err != nil {
		panic(err)
	}
	return rec, count
}

// E6 — any-k over 4-relation path queries: time-to-first, time-to-k,
// time-to-last and maximum delay per variant, across input sizes. The
// expected shape (from the companion paper): every any-k variant has
// TTF orders of magnitude below Batch's TTL-equal TTF; Lazy leads the
// PART family; Rec has the best TTL.
func E6(ctx context.Context, ns []int, k int) *stats.Table {
	t := stats.NewTable("E6: any-k on path query (l=4) — TTF/TTK/TTL/max-delay",
		"n", "variant", "results", "TTF", "TTK(k)", "TTL", "max_delay")
	for _, n := range ns {
		inst := workload.Path(4, n, n/5+1, workload.UniformWeights(), 7)
		for _, v := range core.Variants() {
			rec, count := runVariant(ctx, inst, sum, v, 0)
			t.Add(n, string(v), count, rec.TTF(), rec.TTK(k), rec.TTL(), rec.MaxDelay())
		}
	}
	return t
}

// E7 — "neither approach dominates" (§4): checkpoint times for PART
// (Lazy) vs REC vs Batch on a longer path query. PART variants win early
// checkpoints; REC catches up and wins time-to-last; Batch pays
// everything upfront.
func E7(ctx context.Context, n int) *stats.Table {
	t := stats.NewTable("E7: PART vs REC vs Batch on path query (l=6) — checkpoint times",
		"variant", "results", "TTF", "TT(10)", "TT(100)", "TT(1000)", "TT(10000)", "TTL")
	inst := workload.Path(6, n, n/3+1, workload.UniformWeights(), 13)
	for _, v := range []core.Variant{core.Eager, core.Lazy, core.Quick, core.All, core.Take2, core.Rec, core.Batch} {
		rec, count := runVariant(ctx, inst, sum, v, 0)
		t.Add(string(v), count, rec.TTF(), rec.TTK(10), rec.TTK(100), rec.TTK(1000), rec.TTK(10000), rec.TTL())
	}
	return t
}

// E8 — any-k over star queries (non-serial T-DP, §4): same metrics as
// E6 on a 3-relation star.
func E8(ctx context.Context, ns []int, k int) *stats.Table {
	t := stats.NewTable("E8: any-k on star query (l=3) — TTF/TTK/TTL/max-delay",
		"n", "variant", "results", "TTF", "TTK(k)", "TTL", "max_delay")
	for _, n := range ns {
		inst := workload.Star(3, n, n/5+1, workload.UniformWeights(), 11)
		for _, v := range core.Variants() {
			rec, count := runVariant(ctx, inst, sum, v, 0)
			t.Add(n, string(v), count, rec.TTF(), rec.TTK(k), rec.TTL(), rec.MaxDelay())
		}
	}
	return t
}

// E9 — the tutorial's §1 running example: the k lightest 4-cycles of a
// weighted graph, via the submodular-width decomposition with ranked
// enumeration, against the batch baseline (materialise every 4-cycle
// with the single-tree plan, sort, report). TTF of the submodular
// any-k stays near its O(n^1.5) preprocessing; batch pays the full
// output.
func E9(ctx context.Context, ns []int, k int) *stats.Table {
	t := stats.NewTable("E9: top-k lightest 4-cycles — submodular any-k vs batch",
		"edges", "cycles", "subw_TTF", "subw_TTK(k)", "subw_bags", "batch_time", "single_bags")
	for _, n := range ns {
		// Dense preferential-attachment graphs give cycle counts well above
		// the O(n^1.5) bag sizes, so the batch baseline pays for the output
		// while the any-k TTF tracks only the preprocessing.
		g := workload.PreferentialGraph(n/20+1, n, workload.UniformWeights(), 3)
		var rels [4]*relation.Relation
		for i := range rels {
			rels[i] = g.Edges
		}

		rec := stats.NewDelayRecorder()
		it, st, err := decomp.FourCycleSubmodular(ctx, rels, sum, core.Lazy)
		if err != nil {
			panic(err)
		}
		got := 0
		for got < k {
			if _, ok := it.Next(); !ok {
				break
			}
			rec.Mark()
			got++
		}
		it.Close()

		bt := stats.StartTimer()
		itB, stSingle, err := decomp.FourCycleSingleTree(ctx, rels, sum, core.Batch)
		if err != nil {
			panic(err)
		}
		cycles := 0
		for {
			if _, ok := itB.Next(); !ok {
				break
			}
			cycles++
		}
		itB.Close()
		batchTime := bt.Elapsed()

		t.Add(n, cycles, rec.TTF(), rec.TTK(k), st.TotalMaterialized, batchTime, stSingle.TotalMaterialized)
	}
	return t
}

// E11 — the any-k vs batch crossover (§1/§4): total time to the k-th
// result for Lazy vs Batch as k sweeps toward the full output. Batch's
// cost is flat (it always pays everything); Lazy grows with k and the
// curves cross only near k = r.
func E11(ctx context.Context, n int, ks []int) *stats.Table {
	t := stats.NewTable("E11: time-to-k crossover on path query (l=4) — Lazy vs Batch",
		"k", "lazy_time", "batch_time", "output_r")
	inst := workload.Path(4, n, n/5+1, workload.UniformWeights(), 5)
	// Total output size for context.
	_, r := runVariant(ctx, inst, sum, core.Batch, 0)
	for _, k := range ks {
		lazyRec, _ := runVariant(ctx, inst, sum, core.Lazy, k)
		batchRec, _ := runVariant(ctx, inst, sum, core.Batch, k)
		t.Add(k, lazyRec.TTK(min(k, r)), batchRec.TTK(min(k, r)), r)
	}
	return t
}

// E12 — ranking functions (§4): the any-k machinery is agnostic to the
// monotone ranking function; sum, max, descending-sum and the
// lexicographic encoding all enumerate at the same asymptotic cost.
func E12(ctx context.Context, n int) *stats.Table {
	t := stats.NewTable("E12: ranking functions on path query (l=4) — Lazy",
		"ranking", "results", "TTF", "TTK(100)", "TTL")
	aggs := []ranking.Aggregate{ranking.SumCost, ranking.MaxCost, ranking.SumBenefit, ranking.ProductCost}
	inst := workload.Path(4, n, n/5+1, workload.UniformWeights(), 9)
	for _, agg := range aggs {
		rec, count := runVariant(ctx, inst, agg, core.Lazy, 0)
		t.Add(agg.Name(), count, rec.TTF(), rec.TTK(100), rec.TTL())
	}
	// Lexicographic: the same instance with per-stage keys encoded into
	// the weights (clone so the other rows are unaffected).
	enc := ranking.LexEncoder{Base: int64(n), Stages: 4}
	lexInst := &workload.Instance{H: inst.H, Rels: make([]*relation.Relation, len(inst.Rels))}
	for si, r := range inst.Rels {
		c := r.Clone()
		for i := range c.Tuples {
			c.Weights[i] = enc.Encode(si, c.Tuples[i][0])
		}
		lexInst.Rels[si] = c
	}
	rec, count := runVariant(ctx, lexInst, ranking.SumCost, core.Lazy, 0)
	t.Add("lexicographic", count, rec.TTF(), rec.TTK(100), rec.TTL())
	return t
}

// timeDecompSingle runs the single-tree 4-cycle decomposition to
// completion of its first Next (Boolean check) and reports elapsed time
// and materialised bag tuples.
func timeDecompSingle(ctx context.Context, rels [4]*relation.Relation) (time.Duration, int) {
	t := stats.StartTimer()
	it, st, err := decomp.FourCycleSingleTree(ctx, rels, sum, core.Lazy)
	if err != nil {
		panic(err)
	}
	defer it.Close()
	it.Next()
	return t.Elapsed(), st.TotalMaterialized
}

// timeDecompSub does the same for the submodular-width decomposition.
func timeDecompSub(ctx context.Context, rels [4]*relation.Relation) (time.Duration, int) {
	t := stats.StartTimer()
	it, st, err := decomp.FourCycleSubmodular(ctx, rels, sum, core.Lazy)
	if err != nil {
		panic(err)
	}
	defer it.Close()
	it.Next()
	return t.Elapsed(), st.TotalMaterialized
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
