package relation

import (
	"slices"
	"testing"
)

// TestBuilderConcat checks Builder + ConcatRows against an
// AddTuple-built reference at every chunk boundary (the first chunk
// holds 64 rows, chunks double up to 4 096), with one builder and with
// the rows spread over several — an empty one in the middle — through
// Row and Weights and through Relation, and that both size their arrays
// exactly and leave the builders empty.
func TestBuilderConcat(t *testing.T) {
	attrs := []string{"A", "B"}
	row := func(i int) (Tuple, float64) { return Tuple{Value(i), Value(2 * i)}, float64(i) / 8 }
	check := func(name string, n int, got *Rows, bs ...*Builder) {
		t.Helper()
		want := New("out", attrs...)
		for i := 0; i < n; i++ {
			tu, w := row(i)
			want.AddTuple(tu, w)
		}
		if got.Len() != n || cap(got.Weights) != n || !slices.Equal(got.Weights, want.Weights) {
			t.Fatalf("%s: %d rows, cap(Weights)=%d, or weights differ from the AddTuple reference; want %d", name, got.Len(), cap(got.Weights), n)
		}
		for i := 0; i < n; i++ {
			if tu := got.Row(i); !slices.Equal(tu, want.Tuples[i]) || cap(tu) != len(attrs) {
				t.Fatalf("%s: Row(%d) = %v (cap %d), want %v", name, i, tu, cap(tu), want.Tuples[i])
			}
		}
		rel := got.Relation("out", attrs)
		if rel.Name != "out" || !slices.Equal(rel.Attrs, attrs) {
			t.Fatalf("%s: got %s%v, want out%v", name, rel.Name, rel.Attrs, attrs)
		}
		if !slices.EqualFunc(rel.Tuples, want.Tuples, func(a, b Tuple) bool { return slices.Equal(a, b) }) ||
			!slices.Equal(rel.Weights, want.Weights) {
			t.Fatalf("%s: Relation rows differ from the AddTuple reference", name)
		}
		if cap(rel.Tuples) != n || cap(rel.Weights) != n {
			t.Fatalf("%s: cap(Tuples)=%d cap(Weights)=%d, want exactly %d", name, cap(rel.Tuples), cap(rel.Weights), n)
		}
		for i, b := range bs {
			if b.Len() != 0 || b.full != nil || b.cur.vals != nil || b.cur.ws != nil {
				t.Fatalf("%s: builder %d still holds rows after ConcatRows", name, i)
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
		check("one builder", n, ConcatRows(&one), &one)

		// The same rows cut at uneven points; the second builder stays empty.
		cuts := []int{0, n / 3, n / 3, n/3 + n/2, n}
		many := make([]*Builder, len(cuts)-1)
		for bi := range many {
			many[bi] = new(Builder)
			for i := cuts[bi]; i < cuts[bi+1]; i++ {
				many[bi].Add(row(i))
			}
		}
		check("several builders", n, ConcatRows(many...), many...)
	}
	check("no builders", 0, ConcatRows())
}

// TestConcatArityPanics: Rows.Relation keeps AddTuple's arity check, and
// ConcatRows refuses builders of different arities.
func TestConcatArityPanics(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on arity mismatch", name)
			}
		}()
		f()
	}
	panics("Relation", func() {
		var b Builder
		b.Add(Tuple{1, 2, 3}, 0)
		ConcatRows(&b).Relation("R", []string{"A", "B"})
	})
	panics("ConcatRows", func() {
		var b, c Builder
		b.Add(Tuple{1, 2}, 0)
		c.Add(Tuple{1, 2, 3}, 0)
		ConcatRows(&b, &c)
	})
}
