package heap

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ranking"
)

// alphabet is the key set FuzzKeyedHeap draws from: duplicates, both
// zeros and both infinities, so most comparisons are ties or touch an
// edge of the float64 order.
var alphabet = [8]float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, 1, 2, math.Inf(1)}

// entry is a reference element: a key and the id it was pushed with.
type entry struct {
	key float64
	id  int32
}

// refLess orders entries as the reference's closure does.
func refLess(desc bool) func(a, b entry) bool {
	if desc {
		return func(a, b entry) bool { return a.key > b.key }
	}
	return func(a, b entry) bool { return a.key < b.key }
}

// same reports whether two keys are the same float64, bit for bit.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzKeyedHeap checks every keyed structure against the closure-ordered
// one it replaced (reference_test.go) on the same keys in the same
// direction: the same Push/Pop sequence, the same NewFromSlice and
// Heapify layout, and the same id at every rank IncSort and IncQuick
// hand out, ties included. The first byte picks the direction; each
// further byte is a key (its low three bits index alphabet) and, in the
// queue, an operation (a set high bit pops).
func FuzzKeyedHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0x80, 0x83, 7, 6, 0x80})
	f.Add([]byte{1, 7, 7, 0, 0, 2, 3, 2, 3, 5, 4, 0x85, 0x81, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		desc, ops := data[0]&1 == 1, data[1:]
		keys := make([]float64, len(ops))
		for i, b := range ops {
			keys[i] = alphabet[b&7]
		}
		checkQueue(t, desc, ops)
		checkLayout(t, desc, keys)
		checkSorters(t, desc, keys, data[0]>>1)
	})
}

// checkQueue runs ops on a Heap and on the reference side by side.
func checkQueue(t *testing.T, desc bool, ops []byte) {
	h, ref := New[int32](desc), refNew(refLess(desc))
	pop := func(when string) {
		key, id, ok := h.Pop()
		want, wok := ref.Pop()
		if ok != wok || id != want.id || !same(key, want.key) {
			t.Fatalf("%s: Pop = (%v, %d, %v), reference (%v, %d, %v)", when, key, id, ok, want.key, want.id, wok)
		}
	}
	for i, b := range ops {
		if b&0x80 != 0 && ref.Len() > 0 {
			pop(fmt.Sprint("op ", i))
			continue
		}
		key := alphabet[b&7]
		h.Push(key, int32(i))
		ref.Push(entry{key, int32(i)})
		if k, id, _ := h.Peek(); id != ref.data[0].id || !same(k, ref.data[0].key) {
			t.Fatalf("op %d: Peek = (%v, %d), reference (%v, %d)", i, k, id, ref.data[0].key, ref.data[0].id)
		}
	}
	for ref.Len() > 0 || h.Len() > 0 {
		pop("drain")
	}
}

// checkLayout compares NewFromSlice's and Heapify's layouts with the
// reference NewFromSlice's.
func checkLayout(t *testing.T, desc bool, keys []float64) {
	n := len(keys)
	ids := make([]int32, n)
	entries := make([]entry, n)
	for i := range ids {
		ids[i] = int32(i)
		entries[i] = entry{keys[i], int32(i)}
	}
	h := NewFromSlice(desc, append([]float64(nil), keys...), append([]int32(nil), ids...))
	Heapify(keys, desc, ids)
	ref := refNewFromSlice(refLess(desc), entries)
	for i, want := range ref.data {
		if h.vals[i] != want.id || !same(h.keys[i], want.key) || ids[i] != want.id {
			t.Fatalf("position %d: NewFromSlice (%v, %d), Heapify %d, reference (%v, %d)",
				i, h.keys[i], h.vals[i], ids[i], want.key, want.id)
		}
	}
}

// checkSorters reads IncSort and IncQuick against their references: a
// jump to rank jump mod n first, then every rank in order.
func checkSorters(t *testing.T, desc bool, keys []float64, jump byte) {
	n := len(keys)
	ids := make([]int32, n)
	entries := make([]entry, n)
	for i := range ids {
		ids[i] = int32(i)
		entries[i] = entry{keys[i], int32(i)}
	}
	s := NewIncSort(keys, desc, append([]int32(nil), ids...))
	q := NewIncQuick(keys, desc, ids)
	refS := refNewIncSort(refLess(desc), append([]entry(nil), entries...))
	refQ := refNewIncQuick(refLess(desc), entries)
	ranks := []int{}
	if n > 0 {
		ranks = append(ranks, int(jump)%n)
	}
	for i := 0; i <= n; i++ {
		ranks = append(ranks, i)
	}
	for _, i := range ranks {
		got, ok := s.Get(i)
		want, wok := refS.Get(i)
		if ok != wok || got != want.id {
			t.Fatalf("IncSort rank %d: (%d, %v), reference (%d, %v)", i, got, ok, want.id, wok)
		}
		got, ok = q.Get(i)
		want, wok = refQ.Get(i)
		if ok != wok || got != want.id {
			t.Fatalf("IncQuick rank %d: (%d, %v), reference (%d, %v)", i, got, ok, want.id, wok)
		}
	}
}

// TestDirectionMatchesAggregateLess checks that each ranking's Desc bit
// orders every pair of the fuzz alphabet exactly as its Less does.
func TestDirectionMatchesAggregateLess(t *testing.T) {
	for _, agg := range ranking.All {
		for _, a := range alphabet {
			for _, b := range alphabet {
				if got, want := less(agg.Desc(), a, b), agg.Less(a, b); got != want {
					t.Errorf("%s: less(%v, %v) = %v, Less = %v", agg.Name(), a, b, got, want)
				}
			}
		}
	}
}
