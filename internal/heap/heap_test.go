package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func TestHeapEmpty(t *testing.T) {
	h := New(intLess)
	if h.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", h.Len())
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap reported ok")
	}
	if _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap reported ok")
	}
}

func TestHeapPushPopOrdered(t *testing.T) {
	h := New(intLess)
	in := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, x := range in {
		h.Push(x)
	}
	for want := 0; want < 10; want++ {
		got, ok := h.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v, want %d,true", got, ok, want)
		}
	}
}

func TestHeapPeekDoesNotRemove(t *testing.T) {
	h := New(intLess)
	h.Push(2)
	h.Push(1)
	for i := 0; i < 3; i++ {
		if v, ok := h.Peek(); !ok || v != 1 {
			t.Fatalf("Peek = %d,%v, want 1,true", v, ok)
		}
	}
	if h.Len() != 2 {
		t.Fatalf("Len after Peek = %d, want 2", h.Len())
	}
}

func TestNewFromSlice(t *testing.T) {
	items := []int{9, 4, 7, 1, 3}
	h := NewFromSlice(intLess, items)
	var got []int
	for {
		v, ok := h.Pop()
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

func TestHeapDuplicates(t *testing.T) {
	h := New(intLess)
	for i := 0; i < 50; i++ {
		h.Push(7)
	}
	for i := 0; i < 50; i++ {
		if v, ok := h.Pop(); !ok || v != 7 {
			t.Fatalf("Pop dup = %d,%v", v, ok)
		}
	}
}

// Property: draining a heap yields a sorted permutation of the input.
func TestHeapDrainSortedProperty(t *testing.T) {
	f := func(in []int16) bool {
		h := New(func(a, b int16) bool { return a < b })
		for _, x := range in {
			h.Push(x)
		}
		prev := int16(-1 << 15)
		count := 0
		for {
			v, ok := h.Pop()
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
	h := New(intLess)
	var model []int
	for op := 0; op < 5000; op++ {
		if rng.Intn(3) != 0 || len(model) == 0 {
			x := rng.Intn(1000)
			h.Push(x)
			model = append(model, x)
			sort.Ints(model)
		} else {
			v, ok := h.Pop()
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
	s := NewIncSort(intLess, []int{4, 2, 9, 1, 7})
	for i, want := range []int{1, 2, 4, 7, 9} {
		got, ok := s.Get(i)
		if !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", i, got, ok, want)
		}
	}
	if _, ok := s.Get(5); ok {
		t.Error("Get past end reported ok")
	}
}

func TestIncSortRandomAccessIsStable(t *testing.T) {
	s := NewIncSort(intLess, []int{4, 2, 9, 1, 7})
	if v, _ := s.Get(3); v != 7 {
		t.Fatalf("Get(3) = %d, want 7", v)
	}
	// Earlier ranks must already be materialised and stable.
	if v, _ := s.Get(0); v != 1 {
		t.Fatalf("Get(0) = %d, want 1", v)
	}
}

func TestIncSortEmpty(t *testing.T) {
	s := NewIncSort(intLess, nil)
	if _, ok := s.Get(0); ok {
		t.Error("Get(0) on empty reported ok")
	}
	if s.Total() != 0 {
		t.Errorf("Total = %d, want 0", s.Total())
	}
}

// Property: IncSort visits the same sequence as sort.
func TestIncSortMatchesSortProperty(t *testing.T) {
	f := func(in []int16) bool {
		cp := append([]int16(nil), in...)
		s := NewIncSort(func(a, b int16) bool { return a < b }, cp)
		ref := append([]int16(nil), in...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := range ref {
			got, ok := s.Get(i)
			if !ok || got != ref[i] {
				return false
			}
		}
		_, ok := s.Get(len(ref))
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIncQuickBasic(t *testing.T) {
	q := NewIncQuick(intLess, []int{4, 2, 9, 1, 7, 0, 3})
	for i, want := range []int{0, 1, 2, 3, 4, 7, 9} {
		got, ok := q.Get(i)
		if !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", i, got, ok, want)
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
	q := NewIncQuick(intLess, in)
	for i := 0; i < 100; i++ {
		got, ok := q.Get(i)
		if !ok || got != 5 {
			t.Fatalf("Get(%d) = %d,%v, want 5,true", i, got, ok)
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
	q := NewIncQuick(intLess, in)
	// Access a scattering of ranks out of order.
	for _, i := range []int{9999, 0, 5000, 1, 9998, 4999, 2500} {
		got, ok := q.Get(i)
		if !ok || got != ref[i] {
			t.Fatalf("Get(%d) = %d,%v, want %d", i, got, ok, ref[i])
		}
	}
	for i := range ref {
		got, _ := q.Get(i)
		if got != ref[i] {
			t.Fatalf("full drain: Get(%d) = %d, want %d", i, got, ref[i])
		}
	}
}

// Property: IncQuick matches sort for arbitrary inputs.
func TestIncQuickMatchesSortProperty(t *testing.T) {
	f := func(in []int16) bool {
		cp := append([]int16(nil), in...)
		q := NewIncQuick(func(a, b int16) bool { return a < b }, cp)
		ref := append([]int16(nil), in...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := range ref {
			got, ok := q.Get(i)
			if !ok || got != ref[i] {
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
// the same elements, by identity, as repeated Heap.Pop on the same
// input: with keys drawn from three values almost every comparison is a
// tie, so any difference in the comparisons run would reorder ids.
func TestIncSortMatchesHeapPops(t *testing.T) {
	type elem struct{ key, id int }
	less := func(a, b elem) bool { return a.key < b.key }
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 64, 1000} {
		in := make([]elem, n)
		for i := range in {
			in[i] = elem{key: rng.Intn(3), id: i}
		}
		h := NewFromSlice(less, append([]elem(nil), in...))
		s := NewIncSort(less, append([]elem(nil), in...))
		if s.Total() != n {
			t.Fatalf("n=%d: Total = %d", n, s.Total())
		}
		var want []elem
		for {
			x, ok := h.Pop()
			if !ok {
				break
			}
			want = append(want, x)
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
