package relation

import (
	"slices"
	"testing"
	"unsafe"
)

// contiguous reports whether the tuples lie back to back in one array,
// as the views of one arena do.
func contiguous(ts []Tuple) bool {
	for i := 1; i < len(ts); i++ {
		prev := ts[i-1]
		if len(prev) > 0 && unsafe.Add(unsafe.Pointer(&prev[0]), 8*len(prev)) != unsafe.Pointer(&ts[i][0]) {
			return false
		}
	}
	return true
}

// TestSelectCompacts: a selection keeping fewer than half the rows
// copies its survivors into one fresh array, so it shares no storage
// with its source and does not keep the source's values alive; one
// keeping at least half shares the source's tuples. Either way content
// and order are the source's, every tuple is cap-clipped, and an append
// to a compacted tuple never writes its neighbour.
func TestSelectCompacts(t *testing.T) {
	r := New("R", "A", "B")
	for i := Value(0); i < 100; i++ {
		r.AddWeighted(float64(i)/2, i, -i)
	}
	for _, keepN := range []Value{1, 10, 49, 50, 51, 100} {
		s := r.Select(func(tp Tuple, _ float64) bool { return tp[0] < keepN })
		if s.Len() != int(keepN) {
			t.Fatalf("keep %d: %d rows", keepN, s.Len())
		}
		compact := keepN < 50
		for i, tp := range s.Tuples {
			if !slices.Equal(tp, r.Tuples[i]) || s.Weights[i] != r.Weights[i] {
				t.Fatalf("keep %d: row %d is %v w=%g, want %v w=%g", keepN, i, tp, s.Weights[i], r.Tuples[i], r.Weights[i])
			}
			if shared := &tp[0] == &r.Tuples[i][0]; shared == compact {
				t.Fatalf("keep %d of 100: row %d shared with the source = %v", keepN, i, shared)
			}
			if cap(tp) != len(tp) {
				t.Fatalf("keep %d: row %d has cap %d for %d values", keepN, i, cap(tp), len(tp))
			}
		}
		if compact && !contiguous(s.Tuples) {
			t.Fatalf("keep %d: compacted survivors are not one array", keepN)
		}
	}
	s := r.Select(func(tp Tuple, _ float64) bool { return tp[0] < 10 })
	grown := append(s.Tuples[0], 99)
	if !slices.Equal(s.Tuples[1], Tuple{1, -1}) || !slices.Equal(grown, Tuple{0, 0, 99}) {
		t.Fatalf("append to a view wrote its neighbour: %v, %v", s.Tuples[1], grown)
	}
}

// TestProjectCloneOneArray: Project and Clone write their values into
// one array each, as cap-clipped views.
func TestProjectCloneOneArray(t *testing.T) {
	r := New("R", "A", "B", "C")
	for i := Value(0); i < 50; i++ {
		r.AddWeighted(float64(i), i, 2*i, 3*i)
	}
	p, err := r.Project("C", "A")
	if err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	for name, got := range map[string]*Relation{"Project": p, "Clone": c} {
		if got.Len() != r.Len() || !contiguous(got.Tuples) {
			t.Fatalf("%s: %d rows, one array = %v", name, got.Len(), contiguous(got.Tuples))
		}
		for i, tp := range got.Tuples {
			if cap(tp) != len(tp) || got.Weights[i] != r.Weights[i] {
				t.Fatalf("%s: row %d has cap %d for %d values, weight %g", name, i, cap(tp), len(tp), got.Weights[i])
			}
		}
	}
	if !slices.Equal(p.Tuples[7], Tuple{21, 7}) || !slices.Equal(c.Tuples[7], r.Tuples[7]) {
		t.Fatalf("row 7: Project %v, Clone %v", p.Tuples[7], c.Tuples[7])
	}
}

// FuzzBuilderConcat draws an arity (0–4), a row count (up to past two
// maximal chunks) and a split of the rows over up to eight builders, fed
// through one reused row. Concat must equal the AddTuple reference with
// every tuple cap-clipped, and Select under the keep mask must keep
// exactly the masked rows, in order, without touching its source.
func FuzzBuilderConcat(f *testing.F) {
	f.Add(uint8(2), uint16(0), []byte(nil), []byte(nil))
	f.Add(uint8(0), uint16(70), []byte{128}, []byte{0x55})
	f.Add(uint8(1), uint16(64), []byte{0, 255}, []byte{0x01})
	f.Add(uint8(3), uint16(4097), []byte{10, 10, 200}, []byte{0xff, 0x00, 0x0f})
	f.Add(uint8(4), uint16(8300), []byte{50, 100, 150, 200, 250}, []byte{0x80})
	f.Fuzz(func(t *testing.T, arityIn uint8, rowsIn uint16, cuts, mask []byte) {
		arity := int(arityIn % 5)
		n := int(rowsIn) % (2*maxChunkRows + 200)
		attrs := []string{"A", "B", "C", "D"}[:arity]
		val := func(i, j int) Value { return Value(i*7919 - j*31) }
		want := New("out", attrs...)
		for i := 0; i < n; i++ {
			tu := make(Tuple, arity)
			for j := range tu {
				tu[j] = val(i, j)
			}
			want.AddTuple(tu, float64(i)/3)
		}

		if len(cuts) > 7 {
			cuts = cuts[:7]
		}
		bounds := []int{0, n}
		for _, c := range cuts {
			bounds = append(bounds, int(c)*n/255)
		}
		slices.Sort(bounds)
		builders := make([]*Builder, len(bounds)-1)
		scratch := make(Tuple, arity)
		for bi := range builders {
			builders[bi] = new(Builder)
			for i := bounds[bi]; i < bounds[bi+1]; i++ {
				for j := range scratch {
					scratch[j] = val(i, j)
				}
				builders[bi].Add(scratch, float64(i)/3)
			}
		}
		got := Concat("out", attrs, builders...)
		if got.Len() != n || (n > 0 && (cap(got.Tuples) != n || cap(got.Weights) != n)) {
			t.Fatalf("%d rows: Len %d, cap(Tuples) %d, cap(Weights) %d", n, got.Len(), cap(got.Tuples), cap(got.Weights))
		}
		for i, tu := range got.Tuples {
			if !slices.Equal(tu, want.Tuples[i]) || got.Weights[i] != want.Weights[i] {
				t.Fatalf("row %d is %v w=%g, want %v w=%g", i, tu, got.Weights[i], want.Tuples[i], want.Weights[i])
			}
			if len(tu) != arity || cap(tu) != arity {
				t.Fatalf("row %d has len %d cap %d, want both %d", i, len(tu), cap(tu), arity)
			}
		}

		keep := func(i int) bool { return len(mask) == 0 || mask[(i/8)%len(mask)]>>(i%8)&1 == 1 }
		seen := 0
		sel := got.Select(func(Tuple, float64) bool { seen++; return keep(seen - 1) })
		k := 0
		for i := 0; i < n; i++ {
			if !keep(i) {
				continue
			}
			if k >= sel.Len() || !slices.Equal(sel.Tuples[k], want.Tuples[i]) || sel.Weights[k] != want.Weights[i] || cap(sel.Tuples[k]) != arity {
				t.Fatalf("survivor %d is not row %d", k, i)
			}
			k++
		}
		if k != sel.Len() {
			t.Fatalf("%d survivors, want %d", sel.Len(), k)
		}
		for i, tu := range got.Tuples {
			if !slices.Equal(tu, want.Tuples[i]) {
				t.Fatalf("Select changed source row %d to %v", i, tu)
			}
		}
	})
}
