package relation

import (
	"slices"
	"testing"
)

// TestBuilderConcat checks Builder + Concat against an AddTuple-built
// reference at every chunk boundary (the first chunk holds 64 rows,
// chunks double up to 4 096), with one builder and with the rows spread
// over several — an empty one in the middle — and that Concat sizes the
// arrays exactly and leaves the builders empty.
func TestBuilderConcat(t *testing.T) {
	attrs := []string{"A", "B"}
	row := func(i int) (Tuple, float64) { return Tuple{Value(i), Value(2 * i)}, float64(i) / 8 }
	check := func(name string, n int, got *Relation, bs ...*Builder) {
		t.Helper()
		want := New("out", attrs...)
		for i := 0; i < n; i++ {
			tu, w := row(i)
			want.AddTuple(tu, w)
		}
		if got.Name != "out" || !slices.Equal(got.Attrs, attrs) {
			t.Fatalf("%s: got %s%v, want out%v", name, got.Name, got.Attrs, attrs)
		}
		if !slices.EqualFunc(got.Tuples, want.Tuples, func(a, b Tuple) bool { return slices.Equal(a, b) }) ||
			!slices.Equal(got.Weights, want.Weights) {
			t.Fatalf("%s: rows differ from the AddTuple reference", name)
		}
		if cap(got.Tuples) != n || cap(got.Weights) != n {
			t.Fatalf("%s: cap(Tuples)=%d cap(Weights)=%d, want exactly %d", name, cap(got.Tuples), cap(got.Weights), n)
		}
		for i, b := range bs {
			if b.Len() != 0 || b.full != nil || b.cur.vals != nil || b.cur.ws != nil {
				t.Fatalf("%s: builder %d still holds rows after Concat", name, i)
			}
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 10000} {
		var one Builder
		opens := 0
		for i := 0; i < n; i++ {
			if one.Add(row(i)) {
				opens++
			}
		}
		if one.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, one.Len())
		}
		// 64, 128, …, 2 048 cover 4 032 rows in six chunks; 4 096 each after.
		wantOpens := 0
		for left, size := n, minChunkRows; left > 0; left, size = left-size, min(2*size, maxChunkRows) {
			wantOpens++
		}
		if opens != wantOpens {
			t.Fatalf("n=%d: Add reported %d opened chunks, want %d", n, opens, wantOpens)
		}
		check("one builder", n, Concat("out", attrs, &one), &one)

		// The same rows cut at uneven points; the second builder stays empty.
		cuts := []int{0, n / 3, n / 3, n/3 + n/2, n}
		many := make([]*Builder, len(cuts)-1)
		for bi := range many {
			many[bi] = new(Builder)
			for i := cuts[bi]; i < cuts[bi+1]; i++ {
				many[bi].Add(row(i))
			}
		}
		check("several builders", n, Concat("out", attrs, many...), many...)
	}
	check("no builders", 0, Concat("out", attrs))
}

// TestConcatArityPanics: Concat keeps AddTuple's arity check.
func TestConcatArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	var b Builder
	b.Add(Tuple{1, 2, 3}, 0)
	Concat("R", []string{"A", "B"}, &b)
}
