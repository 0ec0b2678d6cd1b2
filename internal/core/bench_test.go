package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// BenchmarkPartDrain times a full drain of one fixed path T-DP: every
// result of the 4-relation path, ranked by sum, through the variant's
// queue and candidate structures (Rec through its per-state frontiers).
// It reports the time and the bytes allocated per result.
func BenchmarkPartDrain(b *testing.B) {
	tdp := buildTDP(b, workload.Path(4, 400, 40, workload.UniformWeights(), 11), sum)
	results, err := tdp.NumSolutions()
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []Variant{Lazy, Take2, Rec} {
		b.Run(string(v), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := New(context.Background(), tdp, v)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					n++
				}
				if n != int(results) {
					b.Fatalf("%s drained %d results of %d", v, n, results)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N) * float64(results)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/result")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/result")
		})
	}
}
