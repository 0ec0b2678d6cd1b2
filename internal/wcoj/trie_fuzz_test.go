package wcoj

import (
	"cmp"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/relation"
)

// trieShapes maps the small integers of FuzzTrieCursor's depth-0 column
// and its probes onto int64 values, x ↦ base + x·step with wrap-around,
// so the seeds cover both sides of the direct-lookup rule: small dense
// ids, ids 2²⁰ apart (sparse), four values spread from MinInt64 to
// MaxInt64 (sparse, and max − min overflows int64), and a dense run at
// the bottom of the range whose probes below it wrap to the top.
var trieShapes = [4]struct{ base, step relation.Value }{
	{0, 1},
	{0, 1 << 20},
	{math.MinInt64, math.MaxUint64 / 3},
	{math.MinInt64, 1},
}

// FuzzTrieCursor drives one atom's trie cursor with an arbitrary
// sequence of narrow, seekGE and nextBlock calls and checks every answer
// against a linear scan of the sorted tuples. The input's first byte
// sets the row count (low six bits) and the depth-0 column's shape (top
// two bits, see trieShapes); the next two bytes per row give a tuple
// over small domains (so the sorted key columns have long runs of
// duplicates); the rest are (op, value, row) triples. Narrow values come
// in any order and may miss or fall outside the domain, as planTasks'
// replays and bindUncounted on clones narrow, so every seek hint is
// tested stale as well as fresh. Rows equal on both keys must keep
// their input order.
func FuzzTrieCursor(f *testing.F) {
	rows := []byte{0, 1, 0, 1, 1, 2, 1, 2, 1, 3, 2, 0, 3, 5, 3, 5, 0, 2, 0, 1, 3, 1, 2, 2, 1, 1, 0, 1, 4, 4, 0, 0, 1, 1}
	f.Add(append([]byte{8}, rows...))
	f.Add([]byte{20, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 1, 9, 1, 9, 1, 9, 1, 2, 2, 2, 2, 7, 2, 7, 0, 0, 0, 0, 3, 3, 1, 1, 2, 2, 3, 3, 3, 4,
		0, 3, 0, 1, 3, 0, 1, 9, 0, 1, 2, 0, 1, 9, 0, 0, 1, 0, 1, 1, 0, 3, 0, 1, 1, 3, 0, 5, 0, 6, 2, 1, 7, 1, 4, 0, 5, 2, 0, 9})
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 0, 0, 3, 0, 0})
	for shape := byte(1); shape < byte(len(trieShapes)); shape++ {
		f.Add(append([]byte{shape<<6 | 8}, rows...))
	}
	f.Add([]byte{2<<6 | 3, 0, 0, 3, 1, 3, 2, 0, 0, 0, 0, 3, 0, 0, 16, 0, 0, 17, 0, 3, 2, 0, 3, 1, 0, 3, 5})
	f.Add([]byte{3<<6 | 2, 1, 0, 2, 1, 0, 0, 0, 0, 1, 0, 0, 3, 0, 0, 19, 0, 3, 0, 0, 3, 1, 0})
	// Two rows of one dense depth-0 block, in descending order below it.
	f.Add([]byte{2, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, shape := int(data[0])%64, trieShapes[data[0]>>6]
		scale := func(x relation.Value) relation.Value { return shape.base + x*shape.step }
		data = data[1:]
		if len(data) < 2*n {
			n = len(data) / 2
		}
		// Columns are stored as (B, A) and bound in the order A, B, so
		// the cursor's key columns are a permutation of the relation's.
		rel := relation.New("R", "B", "A")
		for i := 0; i < n; i++ {
			rel.AddWeighted(float64(i), relation.Value(data[2*i+1]%16), scale(relation.Value(data[2*i]%4)))
		}
		data = data[2*n:]
		st, err := newAtomState(Atom{Rel: rel, Vars: []string{"B", "A"}}, []string{"A", "B"})
		if err != nil {
			t.Fatal(err)
		}
		ref := make([][2]relation.Value, n)
		for i, tu := range rel.Tuples {
			ref[i] = [2]relation.Value{tu[1], tu[0]}
		}
		slices.SortFunc(ref, func(x, y [2]relation.Value) int {
			return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
		})
		// The depth-0 column is addressed directly iff max − min + 1 ≤ 2n,
		// here in exact arithmetic.
		if n > 0 {
			width := new(big.Int).Sub(big.NewInt(ref[n-1][0]), big.NewInt(ref[0][0]))
			dense := width.Cmp(big.NewInt(int64(2*n-1))) <= 0
			if (st.start != nil) != dense {
				t.Fatalf("depth-0 column %d..%d over %d rows: direct lookup %v, want %v", ref[0][0], ref[n-1][0], n, st.start != nil, dense)
			}
		}
		for r := range ref {
			row := rel.Tuples[st.rows[r]]
			if st.keys[0][r] != ref[r][0] || st.keys[1][r] != ref[r][1] || row[1] != ref[r][0] || row[0] != ref[r][1] {
				t.Fatalf("sorted row %d: keys (%d, %d), tuple %v, want %v", r, st.keys[0][r], st.keys[1][r], row, ref[r])
			}
			// Rows equal on every key keep their input order.
			if r > 0 && ref[r] == ref[r-1] && st.rows[r] <= st.rows[r-1] {
				t.Fatalf("sorted rows %d and %d hold equal keys %v from input rows %d and %d, want them ascending", r-1, r, ref[r], st.rows[r-1], st.rows[r])
			}
		}
		for ; len(data) >= 3; data = data[3:] {
			op, d := data[0]%4, int(data[0]/4)%2
			if op < 2 {
				d = int(op)
			}
			v := relation.Value(data[1]%20) - 2
			if d == 0 {
				v = scale(v)
			}
			lo, hi := st.iv[d][0], st.iv[d][1]
			switch op {
			case 0, 1:
				first, last := lo, lo
				for first < hi && ref[first][d] < v {
					first++
				}
				for last = first; last < hi && ref[last][d] == v; last++ {
				}
				ok := st.narrow(d, v)
				if ok != (last > first) {
					t.Fatalf("narrow(%d, %d) on [%d, %d) = %v, want %v", d, v, lo, hi, ok, last > first)
				}
				if ok && st.iv[d+1] != [2]int32{first, last} {
					t.Fatalf("narrow(%d, %d) on [%d, %d) bound %v, want [%d %d]", d, v, lo, hi, st.iv[d+1], first, last)
				}
			case 2:
				from := lo + int32(data[2])%(hi-lo+1)
				want := from
				for want < hi && ref[want][d] < v {
					want++
				}
				if got := st.seekGE(d, from, v); got != want {
					t.Fatalf("seekGE(%d, %d, %d) on [%d, %d) = %d, want %d", d, from, v, lo, hi, got, want)
				}
			case 3:
				if hi == lo {
					continue
				}
				r := lo + int32(data[2])%(hi-lo)
				want := r
				for want < hi && ref[want][d] == ref[r][d] {
					want++
				}
				if got := st.nextBlock(d, r); got != want {
					t.Fatalf("nextBlock(%d, %d) on [%d, %d) = %d, want %d", d, r, lo, hi, got, want)
				}
			}
		}
	})
}
