package heap

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPushPop times one Push and one Pop on a queue held at a
// steady size, with 16-byte pointer-free values like ANYK-PART's queue
// entries and keys that repeat, so ties are common.
func BenchmarkPushPop(b *testing.B) {
	type val struct{ parent, devPos, candIdx, row int32 }
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([]float64, 1<<12)
			for i := range keys {
				keys[i] = float64(rng.Intn(1000))
			}
			h := New[val](false)
			for i := 0; i < size; i++ {
				h.Push(keys[i%len(keys)], val{row: int32(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, v, _ := h.Pop()
				h.Push(key+keys[i%len(keys)], v)
			}
		})
	}
}
