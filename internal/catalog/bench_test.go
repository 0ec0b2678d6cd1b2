package catalog

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// BenchmarkCollect times Collect on a random graph's 20 000 edges over
// 1 500 vertex ids, as they come (dense: counted in an array) and
// multiplied by 2²⁰ (sparse: counted in a map).
func BenchmarkCollect(b *testing.B) {
	edges := workload.RandomGraph(1500, 20000, workload.UniformWeights(), 42).Edges
	for _, bc := range []struct {
		name  string
		scale relation.Value
	}{{"dense", 1}, {"sparse", 1 << 20}} {
		r := relation.New("E", edges.Attrs...)
		for i, t := range edges.Tuples {
			r.AddWeighted(edges.Weights[i], t[0]*bc.scale, t[1]*bc.scale)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Collect(r)
			}
		})
	}
}
