package core

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/dp"
	"repro/internal/workload"
)

// TestIdleTDPHoldsNoStructures: the iterators of one variant over a T-DP
// share one table of candidate structures while some iterator holds it,
// and once none does, a collection reclaims it, so an idle T-DP keeps no
// structure resident.
func TestIdleTDPHoldsNoStructures(t *testing.T) {
	tdp := buildTDP(t, workload.Path(3, 60, 8, tieWeights(), 5), sum)
	for _, v := range []Variant{Eager, Lazy, Quick, All, Take2} {
		// The iterators live in this function's frame only, so nothing
		// holds the table once it returns.
		table := func() weak.Pointer[dp.Cands] {
			a, err := NewPart(context.Background(), tdp, v)
			if err != nil {
				t.Fatal(err)
			}
			Collect(a, 10)
			b, err := NewPart(context.Background(), tdp, v)
			if err != nil {
				t.Fatal(err)
			}
			ca, cb := a.(*partIter).cands, b.(*partIter).cands
			if ca != cb {
				t.Fatalf("%s: two iterators over one T-DP use two tables", v)
			}
			if ca.Slot(0, 0).Load() == nil {
				t.Fatalf("%s: the root's structure is not published", v)
			}
			return weak.Make(ca)
		}()
		runtime.GC()
		if table.Value() != nil {
			t.Errorf("%s: the table outlives every iterator across a collection", v)
		}
	}
}
