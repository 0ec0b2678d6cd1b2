package core

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestPartAllocsPerResult pins what a full drain allocates per result,
// over a doubling sweep of path instances (about n and 2n results). No
// result costs an object of its own: every iterator emits into one
// reused tuple, the queues and arenas (ANYK-PART's assignments,
// ANYK-REC's rank vectors) grow by amortised doubling or in chunks, the
// REC states are shared by all results, and the candidate structures by
// all Runs over the T-DP. So the count stays at most 0.05 (0.002–0.023
// measured) and does not grow with n.
func TestPartAllocsPerResult(t *testing.T) {
	sizes := []struct{ n, domain int }{{160, 16}, {320, 32}}
	const bound = 0.05
	for _, v := range []Variant{Eager, Lazy, Quick, All, Take2, Rec} {
		var per []float64
		for _, sz := range sizes {
			tdp := buildTDP(t, workload.Path(3, sz.n, sz.domain, workload.UniformWeights(), 5), sum)
			results, err := tdp.NumSolutions()
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				it, err := New(context.Background(), tdp, v)
				if err != nil {
					t.Fatal(err)
				}
				for {
					if _, ok := it.Next(); !ok {
						break
					}
				}
			})
			per = append(per, allocs/float64(results))
			t.Logf("%s: %d results, %.0f objects, %.3f per result", v, results, allocs, allocs/float64(results))
		}
		if per[0] > bound || per[1] > bound {
			t.Errorf("%s: a full drain allocates %.3f / %.3f objects per result, want ≤ %g", v, per[0], per[1], bound)
		}
		if per[1] > per[0]+0.02 {
			t.Errorf("%s: objects per result grow with the output: %.3f → %.3f", v, per[0], per[1])
		}
	}
}
