package heap

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestRankedMatchesItsSort: a shared sort hands out, at every rank, the
// id its sort alone would, to 8 goroutines that ask for the ranks in
// orders of their own, with keys from three values so almost every
// comparison is a tie. A final list is read as given.
func TestRankedMatchesItsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 9, 64, 1000} {
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(3)
		}
		for _, kind := range []string{"IncSort", "IncQuick", "Final"} {
			keys, ids := column(in...)
			var want []int32
			var r *Ranked
			switch kind {
			case "IncSort":
				s := NewIncSort(keys, true, slices.Clone(ids))
				for i := range n {
					id, _ := s.Get(i)
					want = append(want, id)
				}
				r = SharedIncSort(keys, true, ids)
			case "IncQuick":
				q := NewIncQuick(keys, true, slices.Clone(ids))
				for i := range n {
					id, _ := q.Get(i)
					want = append(want, id)
				}
				r = SharedIncQuick(keys, true, ids)
			case "Final":
				want = slices.Clone(ids)
				r = Final(ids)
			}
			if r.Total() != n {
				t.Fatalf("%s n=%d: Total = %d", kind, n, r.Total())
			}
			var wg sync.WaitGroup
			for g := range 8 {
				order := rand.New(rand.NewSource(int64(g))).Perm(n + 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, i := range order {
						id, ok := r.Get(i)
						if ok != (i < n) || ok && id != want[i] {
							t.Errorf("%s n=%d goroutine %d: Get(%d) = %d, %v; want %v", kind, n, g, i, id, ok, i < n)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}
