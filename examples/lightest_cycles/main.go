// Lightest 4-cycles — the running example of the tutorial's
// introduction: given a graph with weighted edges (lower weight = more
// important), return the k most important 4-cycles without materialising
// all O(n²) of them.
//
// The query is the 4-way self-join of the edge relation with equality
// on adjacent endpoints; evaluation uses the submodular-width (1.5)
// decomposition with ranked enumeration (Lazy any-k) and falls back to
// comparing against the batch baseline to show the gap.
package main

import (
	"context"

	"flag"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	edges := flag.Int("edges", 5000, "number of edges in the random graph")
	vertices := flag.Int("vertices", 1200, "number of vertices")
	k := flag.Int("k", 10, "how many lightest 4-cycles to report")
	seed := flag.Uint64("seed", 42, "graph seed")
	flag.Parse()

	g := workload.SkewedGraph(*vertices, *edges, 1.2, workload.UniformWeights(), *seed)
	var rels [4]*relation.Relation
	for i := range rels {
		rels[i] = g.Edges
	}
	agg := ranking.SumCost

	start := time.Now()
	it, st, err := decomp.FourCycleSubmodular(context.Background(), rels, agg, core.Lazy)
	if err != nil {
		panic(err)
	}
	defer it.Close()
	prep := time.Since(start)
	fmt.Printf("graph: %d edges, %d vertices; heavy B values: %d, heavy D values: %d\n",
		*edges, *vertices, st.HeavyB, st.HeavyD)
	fmt.Printf("decomposition bags (per tree, per bag): %v  (total %d tuples, O(n^1.5) guaranteed)\n",
		st.BagSizes, st.TotalMaterialized)
	fmt.Printf("preprocessing: %v\n\n", prep)

	fmt.Printf("top-%d lightest 4-cycles (A→B→C→D→A):\n", *k)
	found := 0
	for found < *k {
		r, ok := it.Next()
		if !ok {
			break
		}
		found++
		fmt.Printf("  #%-3d cycle %v  weight %.4f  (t=%v)\n", found, r.Tuple, r.Weight, time.Since(start))
	}
	if found == 0 {
		fmt.Println("  (no 4-cycles in this graph — try more edges)")
		return
	}

	// Contrast with the batch baseline: materialise every 4-cycle via the
	// single-tree plan and sort.
	bstart := time.Now()
	itB, stB, err := decomp.FourCycleSingleTree(context.Background(), rels, agg, core.Batch)
	if err != nil {
		panic(err)
	}
	defer itB.Close()
	total := 0
	for {
		if _, ok := itB.Next(); !ok {
			break
		}
		total++
	}
	fmt.Printf("\nbatch baseline: %d total 4-cycles via single-tree plan (%d bag tuples) in %v\n",
		total, stB.TotalMaterialized, time.Since(bstart))
}
