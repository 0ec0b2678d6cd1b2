package core

import (
	"fmt"
	"testing"

	"repro/internal/dp"
)

// TestSuccessorsSpanEveryPositionOnce checks the invariant the candidate
// structures state: from position 0 the successor edges reach every
// position exactly once, Get is false exactly past the end, and no
// successor ranks before its predecessor — with tied π values, so an
// order that only holds for distinct weights would show.
func TestSuccessorsSpanEveryPositionOnce(t *testing.T) {
	for _, v := range []Variant{Eager, Lazy, Quick, Take2, All} {
		for _, size := range []int{0, 1, 2, 3, 7, 8, 33} {
			t.Run(fmt.Sprintf("%s/%d", v, size), func(t *testing.T) {
				// Rows are spread over a larger π array; every weight
				// occurs about four times and the best is not first.
				ids, best := make([]int32, size), 0
				n := &dp.Node{Pi: make([]float64, 2*size+1), Groups: dp.OneGroup(ids)}
				for i := range ids {
					row := int32(2*i + 1)
					ids[i] = row
					n.Pi[row] = float64((i*7 + 3) % (size/4 + 1))
					if sum.Less(n.Pi[row], n.Pi[ids[best]]) {
						best = i
					}
				}
				s, sh := buildStruct(v, sum, n, 0), shapeOf(v)

				seen := make(map[int32]bool, size)
				rows := make(map[int32]bool, size)
				var walk func(idx int32, from float64)
				walk = func(idx int32, from float64) {
					row, ok := s.Get(int(idx))
					if !ok {
						t.Fatalf("Get(%d) is false but a successor edge leads there", idx)
					}
					if seen[idx] {
						t.Fatalf("position %d reached twice", idx)
					}
					seen[idx] = true
					rows[row] = true
					pi := n.Pi[row]
					if sum.Less(pi, from) {
						t.Fatalf("position %d (π %g) ranks before its predecessor (π %g)", idx, pi, from)
					}
					for _, next := range successors(sh, idx, int32(s.Total()), nil) {
						walk(next, pi)
					}
				}
				if size > 0 {
					row, _ := s.Get(0)
					if want := n.Pi[ids[best]]; n.Pi[row] != want {
						t.Fatalf("position 0 has π %g, the group's best is %g", n.Pi[row], want)
					}
					if v == All && row != ids[best] {
						t.Fatalf("position 0 holds row %d, the group's first best is row %d", row, ids[best])
					}
					walk(0, n.Pi[row])
				}
				if len(seen) != size || len(rows) != size {
					t.Fatalf("walk visited %d positions and %d rows of %d", len(seen), len(rows), size)
				}
				if _, ok := s.Get(size); ok {
					t.Fatalf("Get(%d) is true one past the end", size)
				}
			})
		}
	}
}
