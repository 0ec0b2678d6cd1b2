package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// fuzzVals packs values the way FuzzIndex unpacks them.
func fuzzVals(vs ...int64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// FuzzIndex checks Index against the naive grouping — a map from the
// printed key to its row numbers plus the order keys first appeared in —
// on relations of arity 1–3 indexed on 0..arity of their columns.
//
//	go test -fuzz FuzzIndex -fuzztime 40s -run '^$' ./internal/relation
func FuzzIndex(f *testing.F) {
	f.Add([]byte(nil), uint8(0), uint8(1))                                                      // empty relation
	f.Add([]byte(nil), uint8(1), uint8(0))                                                      // empty relation, zero key columns
	f.Add(fuzzVals(1, 2, 3, 4), uint8(1), uint8(0))                                             // zero key columns
	f.Add(fuzzVals(-1, 0, -1, math.MinInt64, math.MaxInt64, math.MinInt64), uint8(0), uint8(1)) // negative and extreme values
	f.Add(fuzzVals(7, 7, 7, 7, 7, 7, 7, 7), uint8(1), uint8(2))                                 // all-equal keys
	f.Add(fuzzVals(1, 2, 3, 1, 2, 4, 9, 2, 3, 1, 2, 3), uint8(2), uint8(2))                     // arity 3, two key columns
	f.Add(fuzzVals(1, 2, 2, 1, 1, 2, -2, -1), uint8(1), uint8(2))                               // (a,b) vs (b,a) must not collide into one group
	f.Fuzz(func(t *testing.T, data []byte, arityMinus1, nKey uint8) {
		arity := 1 + int(arityMinus1%3)
		attrs := []string{"A", "B", "C"}[:arity]
		keyAttrs := attrs[:int(nKey)%(arity+1)]
		r := New("R", attrs...)
		for ; len(data) >= 8*arity; data = data[8*arity:] {
			row := make(Tuple, arity)
			for j := range row {
				row[j] = Value(binary.LittleEndian.Uint64(data[8*j:]))
			}
			r.AddTuple(row, 0)
		}

		want := map[string][]int32{}
		var order []Tuple // distinct keys, first seen first
		for i, row := range r.Tuples {
			k := row[:len(keyAttrs)]
			if _, seen := want[fmt.Sprint(k)]; !seen {
				order = append(order, k)
			}
			want[fmt.Sprint(k)] = append(want[fmt.Sprint(k)], int32(i))
		}

		ix, err := NewIndex(r, keyAttrs...)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Keys() != len(order) {
			t.Fatalf("Keys = %d, want %d", ix.Keys(), len(order))
		}
		widest := 0
		for g, k := range order {
			rows := want[fmt.Sprint(k)]
			widest = max(widest, len(rows))
			if got := ix.Find(k); got != g {
				t.Fatalf("Find(%v) = %d, want %d (ids are first-seen)", k, got, g)
			}
			if got := ix.Lookup(k); !slices.Equal(got, rows) {
				t.Fatalf("Lookup(%v) = %v, want %v (ascending)", k, got, rows)
			}
			if got := ix.Rows(g); !slices.Equal(got, rows) {
				t.Fatalf("Rows(%d) = %v, want %v", g, got, rows)
			}
		}
		if ix.MaxFanout() != widest {
			t.Fatalf("MaxFanout = %d, want %d", ix.MaxFanout(), widest)
		}
		// Keys next to present ones are found iff the reference has them.
		for _, k := range order {
			for j := range k {
				probe := slices.Clone(k)
				probe[j]++
				_, present := want[fmt.Sprint(probe)]
				if got := ix.Find(probe); (got >= 0) != present {
					t.Fatalf("Find(%v) = %d, present = %v", probe, got, present)
				}
				if !present && ix.Lookup(probe) != nil {
					t.Fatalf("Lookup(%v) of an absent key is not nil", probe)
				}
			}
		}
	})
}

// TestIndexZeroColumnsEmpty: no rows, no group — not one empty group.
func TestIndexZeroColumnsEmpty(t *testing.T) {
	ix := MustIndex(New("R", "A"))
	if ix.Keys() != 0 || ix.Find(nil) != -1 || ix.Lookup(nil) != nil {
		t.Fatalf("empty zero-column index: Keys=%d Find=%d Lookup=%v", ix.Keys(), ix.Find(nil), ix.Lookup(nil))
	}
}

func TestIndexLookupArityPanics(t *testing.T) {
	ix := MustIndex(New("R", "A", "B"), "A")
	defer func() {
		if recover() == nil {
			t.Error("Lookup with a 2-value key on a 1-column index did not panic")
		}
	}()
	ix.Lookup([]Value{1, 2})
}

// TestIndexIndependentOfSeed pins the contract that lets the hash be
// seeded per process: the seed moves keys between slots, never between
// ids, so the groups are the same arrays under any seed.
func TestIndexIndependentOfSeed(t *testing.T) {
	r := New("R", "A", "B", "C")
	for i := 0; i < 5000; i++ {
		r.Add(Value(i*i%97), Value(-i%13), Value(i))
	}
	defer func(s uint64) { processSeed = s }(processSeed)
	processSeed = 1
	a := MustIndex(r, "A", "B")
	processSeed = 0xdeadbeefcafe
	b := MustIndex(r, "A", "B")
	if slices.Equal(a.table.slots, b.table.slots) {
		t.Fatal("the two seeds placed every key in the same slot: the seed is not used")
	}
	if !slices.Equal(a.start, b.start) || !slices.Equal(a.rows, b.rows) ||
		!slices.Equal(a.table.keys, b.table.keys) {
		t.Fatal("index contents depend on the hash seed")
	}
}

// TestNewIndexAllocationShape: building an index allocates a fixed
// number of arrays, however many groups the rows fall into — the first of
// the doubling-sweep guarantees (ROADMAP): grouping is one O(n) pass
// with no per-key object.
func TestNewIndexAllocationShape(t *testing.T) {
	const n = 10000
	one, distinct := New("R", "A"), New("R", "A")
	for i := 0; i < n; i++ {
		one.Add(7)
		distinct.Add(Value(i))
	}
	allocs := func(r *Relation) float64 {
		return testing.AllocsPerRun(5, func() { MustIndex(r, "A") })
	}
	// The process's first GC cycle starts the background mark workers,
	// allocating a goroutine and a worker node for each, and wakes the
	// scavenger, which allocates a timer: five objects that would land in
	// whichever window that cycle falls into when this test runs first.
	runtime.GC()
	if a, b := allocs(one), allocs(distinct); a != b {
		t.Fatalf("NewIndex allocates %v objects for 1 key but %v for %d keys at n=%d", a, b, n, n)
	}
}

// TestKeyTableGrows inserts far past the size hint.
func TestKeyTableGrows(t *testing.T) {
	kt := NewKeyTable(2, 0)
	const n = 3000
	for i := 0; i < n; i++ {
		if id, added := kt.Insert([]Value{Value(i % 50), Value(i / 50)}); id != i || !added {
			t.Fatalf("Insert #%d = (%d, %v), want (%d, true)", i, id, added, i)
		}
	}
	for i := 0; i < n; i++ {
		key := []Value{Value(i % 50), Value(i / 50)}
		if id := kt.Find(key); id != i {
			t.Fatalf("Find(%v) = %d, want %d", key, id, i)
		}
		if id, added := kt.Insert(key); id != i || added {
			t.Fatalf("re-Insert(%v) = (%d, %v), want (%d, false)", key, id, added, i)
		}
	}
	if kt.Len() != n || kt.Find([]Value{50, 0}) != -1 {
		t.Fatalf("Len = %d, Find(absent) = %d", kt.Len(), kt.Find([]Value{50, 0}))
	}
}

func TestApplyDelta(t *testing.T) {
	r := New("R", "A", "B")
	r.AddWeighted(1, 1, 1)
	r.AddWeighted(2, 2, 2)
	r.AddWeighted(3, 1, 1) // duplicate of row 0 by value
	r.AddWeighted(4, 3, 3)
	del := []Tuple{{1, 1}, {1, 1}, {9, 9}, {3, 3}} // a repeated delete, a miss, and one re-appended below
	got, removed := r.ApplyDelta(del, []Tuple{{3, 3}, {5, 5}}, []float64{40, 50})
	want := New("R", "A", "B")
	want.AddWeighted(2, 2, 2)
	want.AddWeighted(40, 3, 3)
	want.AddWeighted(50, 5, 5)
	if removed != 3 || fmt.Sprint(got.Tuples, got.Weights) != fmt.Sprint(want.Tuples, want.Weights) {
		t.Fatalf("ApplyDelta removed %d rows leaving %v %v, want 3 and %v %v", removed, got.Tuples, got.Weights, want.Tuples, want.Weights)
	}
	if r.Len() != 4 || r.Weights[3] != 4 {
		t.Fatal("ApplyDelta mutated its receiver")
	}
	// Nil weights mean zero; no deletes means every row is kept.
	got, removed = r.ApplyDelta(nil, []Tuple{{6, 6}}, nil)
	if removed != 0 || got.Len() != 5 || got.Weights[4] != 0 {
		t.Fatalf("append-only delta: removed %d, %d rows, last weight %g", removed, got.Len(), got.Weights[4])
	}
}
