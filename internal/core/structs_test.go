package core

import (
	"fmt"
	"testing"

	"repro/internal/dp"
)

// TestSuccessorsSpanEveryPositionOnce checks the invariant candStruct
// states: from position 0 the successor edges reach every position
// exactly once, at is false exactly past the end, and no successor
// ranks before its predecessor — with tied π values, so an order that
// only holds for distinct weights would show.
func TestSuccessorsSpanEveryPositionOnce(t *testing.T) {
	for _, v := range []Variant{Eager, Lazy, Quick, Take2, All} {
		for _, size := range []int{0, 1, 2, 3, 7, 8, 33} {
			t.Run(fmt.Sprintf("%s/%d", v, size), func(t *testing.T) {
				// Rows are spread over a larger π array; every weight
				// occurs about four times and the best is not first.
				n := &dp.Node{Pi: make([]float64, 2*size+1)}
				g := &dp.Group{Rows: make([]int32, size)}
				for i := range g.Rows {
					row := int32(2*i + 1)
					g.Rows[i] = row
					n.Pi[row] = float64((i*7 + 3) % (size/4 + 1))
					if sum.Less(n.Pi[row], n.Pi[g.Rows[g.BestIdx]]) {
						g.BestIdx = int32(i)
					}
				}
				s := structFactory(v, sum)(n, g)

				seen := make(map[int32]bool, size)
				rows := make(map[int32]bool, size)
				var walk func(idx int32, from float64)
				walk = func(idx int32, from float64) {
					row, pi, ok := s.at(idx)
					if !ok {
						t.Fatalf("at(%d) is false but a successor edge leads there", idx)
					}
					if seen[idx] {
						t.Fatalf("position %d reached twice", idx)
					}
					seen[idx] = true
					rows[row] = true
					if pi != n.Pi[row] {
						t.Fatalf("at(%d) = row %d with π %g, the row's π is %g", idx, row, pi, n.Pi[row])
					}
					if sum.Less(pi, from) {
						t.Fatalf("position %d (π %g) ranks before its predecessor (π %g)", idx, pi, from)
					}
					for _, next := range s.successors(idx, nil) {
						walk(next, pi)
					}
				}
				if size > 0 {
					_, best, _ := s.at(0)
					if best != n.Pi[g.Rows[g.BestIdx]] {
						t.Fatalf("position 0 has π %g, the group's best is %g", best, n.Pi[g.Rows[g.BestIdx]])
					}
					walk(0, best)
				}
				if len(seen) != size || len(rows) != size {
					t.Fatalf("walk visited %d positions and %d rows of %d", len(seen), len(rows), size)
				}
				if _, _, ok := s.at(int32(size)); ok {
					t.Fatalf("at(%d) is true one past the end", size)
				}
			})
		}
	}
}
