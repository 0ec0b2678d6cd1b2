// Ranked path enumeration: compare the any-k variants (Part 3 of the
// tutorial) live on a 4-hop path query, reporting time-to-first,
// time-to-k and time-to-last per variant — a miniature of the
// companion paper's empirical study.
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/ranking"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

func main() {
	n := flag.Int("n", 2000, "tuples per relation")
	l := flag.Int("l", 4, "path length (relations)")
	k := flag.Int("k", 1000, "checkpoint k")
	flag.Parse()

	inst := workload.Path(*l, *n, *n/5+1, workload.UniformWeights(), 42)
	fmt.Printf("path query: %s, n=%d per relation\n\n", inst.H, *n)

	table := stats.NewTable("any-k variants", "variant", "results", "TTF", fmt.Sprintf("TT(%d)", *k), "TTL", "max_delay")
	for _, v := range core.Variants() {
		rec := stats.NewDelayRecorder()
		q, err := yannakakis.NewQuery(inst.H, inst.Rels)
		if err != nil {
			panic(err)
		}
		t, err := dp.Build(q, ranking.SumCost)
		if err != nil {
			panic(err)
		}
		it, err := core.New(context.Background(), t, v)
		if err != nil {
			panic(err)
		}
		count := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			rec.Mark()
			count++
		}
		it.Close()
		table.Add(string(v), count, rec.TTF(), rec.TTK(*k), rec.TTL(), rec.MaxDelay())
	}
	fmt.Println(table)

	// Show the top-3 results for one variant, proving the interface.
	q, _ := yannakakis.NewQuery(inst.H, inst.Rels)
	t, _ := dp.Build(q, ranking.SumCost)
	it, _ := core.New(context.Background(), t, core.Lazy)
	defer it.Close()
	fmt.Println("three best join results (lightest paths):")
	for i := 0; i < 3; i++ {
		r, ok := it.Next()
		if !ok {
			break
		}
		fmt.Printf("  #%d  %v  weight %.4f\n", i+1, r.Tuple, r.Weight)
	}
}
