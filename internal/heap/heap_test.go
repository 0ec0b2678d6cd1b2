package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// pushAll returns an ascending heap of xs, each keyed by itself.
func pushAll(xs ...int) Heap[int] {
	h := New[int](false)
	for _, x := range xs {
		h.Push(float64(x), x)
	}
	return h
}

// column returns xs as keys and the ids 0..len(xs)-1 that index them.
func column(xs ...int) ([]float64, []int32) {
	keys := make([]float64, len(xs))
	ids := make([]int32, len(xs))
	for i, x := range xs {
		keys[i], ids[i] = float64(x), int32(i)
	}
	return keys, ids
}

func TestHeapEmpty(t *testing.T) {
	var h Heap[int]
	if h.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", h.Len())
	}
	if _, _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap reported ok")
	}
	if _, _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap reported ok")
	}
}

func TestHeapPushPopOrdered(t *testing.T) {
	h := pushAll(5, 3, 8, 1, 9, 2, 7, 4, 6, 0)
	for want := 0; want < 10; want++ {
		key, got, ok := h.Pop()
		if !ok || got != want || key != float64(want) {
			t.Fatalf("Pop = %v,%d,%v, want %d,%d,true", key, got, ok, want, want)
		}
	}
}

func TestHeapDescending(t *testing.T) {
	h := New[string](true)
	for i, s := range []string{"b", "d", "a", "c"} {
		h.Push([]float64{2, 4, 1, 3}[i], s)
	}
	for _, want := range []string{"d", "c", "b", "a"} {
		if _, got, ok := h.Pop(); !ok || got != want {
			t.Fatalf("Pop = %q,%v, want %q", got, ok, want)
		}
	}
}

func TestHeapPeekDoesNotRemove(t *testing.T) {
	h := pushAll(2, 1)
	for i := 0; i < 3; i++ {
		if _, v, ok := h.Peek(); !ok || v != 1 {
			t.Fatalf("Peek = %d,%v, want 1,true", v, ok)
		}
	}
	if h.Len() != 2 {
		t.Fatalf("Len after Peek = %d, want 2", h.Len())
	}
}

func TestNewFromSlice(t *testing.T) {
	vals := []int{9, 4, 7, 1, 3}
	keys := []float64{9, 4, 7, 1, 3}
	h := NewFromSlice(false, keys, vals)
	var got []int
	for {
		_, v, ok := h.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int{1, 3, 4, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain = %v, want %v", got, want)
		}
	}
}

func TestHeapifyLayout(t *testing.T) {
	keys, ids := column(9, 4, 7, 1, 3, 8, 2)
	Heapify(keys, false, ids)
	for i := 1; i < len(ids); i++ {
		if keys[ids[i]] < keys[ids[(i-1)/2]] {
			t.Fatalf("ids %v: position %d ranks before its parent", ids, i)
		}
	}
}

func TestHeapDuplicates(t *testing.T) {
	h := New[int](false)
	for i := 0; i < 50; i++ {
		h.Push(7, 7)
	}
	for i := 0; i < 50; i++ {
		if _, v, ok := h.Pop(); !ok || v != 7 {
			t.Fatalf("Pop dup = %d,%v", v, ok)
		}
	}
}

// Property: draining a heap yields a sorted permutation of the input.
func TestHeapDrainSortedProperty(t *testing.T) {
	f := func(in []int16) bool {
		h := New[int16](false)
		for _, x := range in {
			h.Push(float64(x), x)
		}
		prev := int16(-1 << 15)
		count := 0
		for {
			_, v, ok := h.Pop()
			if !ok {
				break
			}
			if v < prev {
				return false
			}
			prev = v
			count++
		}
		return count == len(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interleaved push/pop never violates min order w.r.t. a model.
func TestHeapAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := New[int](false)
	var model []int
	for op := 0; op < 5000; op++ {
		if rng.Intn(3) != 0 || len(model) == 0 {
			x := rng.Intn(1000)
			h.Push(float64(x), x)
			model = append(model, x)
			sort.Ints(model)
		} else {
			_, v, ok := h.Pop()
			if !ok {
				t.Fatal("Pop failed with non-empty model")
			}
			if v != model[0] {
				t.Fatalf("op %d: Pop = %d, model min = %d", op, v, model[0])
			}
			model = model[1:]
		}
	}
}

func TestIncSortBasic(t *testing.T) {
	keys, ids := column(4, 2, 9, 1, 7)
	s := NewIncSort(keys, false, ids)
	for i, want := range []float64{1, 2, 4, 7, 9} {
		got, ok := s.Get(i)
		if !ok || keys[got] != want {
			t.Fatalf("Get(%d) = %d,%v, want the id of %v", i, got, ok, want)
		}
	}
	if _, ok := s.Get(5); ok {
		t.Error("Get past end reported ok")
	}
}

func TestIncSortRandomAccessIsStable(t *testing.T) {
	keys, ids := column(4, 2, 9, 1, 7)
	s := NewIncSort(keys, false, ids)
	if id, _ := s.Get(3); keys[id] != 7 {
		t.Fatalf("Get(3) has key %v, want 7", keys[id])
	}
	// Earlier ranks must already be materialised and stable.
	if id, _ := s.Get(0); keys[id] != 1 {
		t.Fatalf("Get(0) has key %v, want 1", keys[id])
	}
	// The sorted prefix sits at the front of the slice given.
	for i, want := range []float64{1, 2, 4, 7} {
		if keys[ids[i]] != want {
			t.Fatalf("ids[%d] has key %v, want %v", i, keys[ids[i]], want)
		}
	}
}

func TestIncSortEmpty(t *testing.T) {
	s := NewIncSort(nil, false, nil)
	if _, ok := s.Get(0); ok {
		t.Error("Get(0) on empty reported ok")
	}
}

// sortedKeys returns the keys of in, ascending.
func sortedKeys(in []int16) []float64 {
	ref := make([]float64, len(in))
	for i, x := range in {
		ref[i] = float64(x)
	}
	sort.Float64s(ref)
	return ref
}

// Property: IncSort visits the same sequence as sort.
func TestIncSortMatchesSortProperty(t *testing.T) {
	f := func(in []int16) bool {
		keys, ids := column(int16s(in)...)
		s := NewIncSort(keys, false, ids)
		for i, want := range sortedKeys(in) {
			got, ok := s.Get(i)
			if !ok || keys[got] != want {
				return false
			}
		}
		_, ok := s.Get(len(in))
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func int16s(in []int16) []int {
	out := make([]int, len(in))
	for i, x := range in {
		out[i] = int(x)
	}
	return out
}

func TestIncQuickBasic(t *testing.T) {
	keys, ids := column(4, 2, 9, 1, 7, 0, 3)
	q := NewIncQuick(keys, false, ids)
	for i, want := range []float64{0, 1, 2, 3, 4, 7, 9} {
		got, ok := q.Get(i)
		if !ok || keys[got] != want {
			t.Fatalf("Get(%d) = %d,%v, want the id of %v", i, got, ok, want)
		}
	}
	if _, ok := q.Get(7); ok {
		t.Error("Get past end reported ok")
	}
}

func TestIncQuickAllEqual(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = 5
	}
	keys, ids := column(in...)
	q := NewIncQuick(keys, false, ids)
	for i := 0; i < 100; i++ {
		got, ok := q.Get(i)
		if !ok || keys[got] != 5 {
			t.Fatalf("Get(%d) = %d,%v, want a key of 5", i, got, ok)
		}
	}
}

func TestIncQuickLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]int, 10000)
	for i := range in {
		in[i] = rng.Intn(500) // many duplicates
	}
	ref := append([]int(nil), in...)
	sort.Ints(ref)
	keys, ids := column(in...)
	q := NewIncQuick(keys, false, ids)
	// Access a scattering of ranks out of order.
	for _, i := range []int{9999, 0, 5000, 1, 9998, 4999, 2500} {
		got, ok := q.Get(i)
		if !ok || keys[got] != float64(ref[i]) {
			t.Fatalf("Get(%d) = %d,%v, want a key of %d", i, got, ok, ref[i])
		}
	}
	for i := range ref {
		got, _ := q.Get(i)
		if keys[got] != float64(ref[i]) {
			t.Fatalf("full drain: Get(%d) has key %v, want %d", i, keys[got], ref[i])
		}
	}
}

// Property: IncQuick matches sort for arbitrary inputs.
func TestIncQuickMatchesSortProperty(t *testing.T) {
	f := func(in []int16) bool {
		keys, ids := column(int16s(in)...)
		q := NewIncQuick(keys, false, ids)
		for i, want := range sortedKeys(in) {
			got, ok := q.Get(i)
			if !ok || keys[got] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIncSortMatchesHeapPops checks that the in-place IncSort returns
// the same ids as repeated Heap.Pop on the same keys: with keys drawn
// from three values almost every comparison is a tie, so any difference
// in the comparisons run would reorder ids.
func TestIncSortMatchesHeapPops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 64, 1000} {
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(3)
		}
		keys, ids := column(in...)
		h := NewFromSlice(false, append([]float64(nil), keys...), append([]int32(nil), ids...))
		s := NewIncSort(keys, false, ids)
		var want []int32
		for {
			_, id, ok := h.Pop()
			if !ok {
				break
			}
			want = append(want, id)
		}
		// Jump to the middle rank first, then read every rank: ranks
		// materialised by the jump must come back unchanged.
		if n > 0 {
			if got, _ := s.Get(n / 2); got != want[n/2] {
				t.Fatalf("n=%d rank %d: IncSort %v, Heap.Pop %v", n, n/2, got, want[n/2])
			}
		}
		for i, w := range want {
			if got, ok := s.Get(i); !ok || got != w {
				t.Fatalf("n=%d rank %d: IncSort %v, Heap.Pop %v", n, i, got, w)
			}
		}
		if _, ok := s.Get(n); ok {
			t.Fatalf("n=%d: Get past the end reported ok", n)
		}
	}
}
