package relation

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndLen(t *testing.T) {
	r := New("R", "A", "B")
	r.AddWeighted(1.5, 1, 2)
	r.AddWeighted(2.5, 3, 4)
	if r.Len() != 2 || r.Arity() != 2 {
		t.Fatalf("Len=%d Arity=%d, want 2,2", r.Len(), r.Arity())
	}
	if r.Weights[0] != 1.5 || r.Tuples[1][1] != 4 {
		t.Fatal("stored values wrong")
	}
}

func TestAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	r := New("R", "A", "B")
	r.Add(1)
}

// TestDenseColumn: a column is dense iff max − min + 1 ≤ 2·rows, with
// the difference exact at both ends of the int64 range.
func TestDenseColumn(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []Value
		base Value
		span int
	}{
		{"empty", nil, 0, 0},
		{"single value", []Value{-7}, -7, 1},
		{"span 2n", []Value{3, 1, 6}, 1, 6},
		{"span 2n+1", []Value{3, 0, 6}, 0, 0},
		{"bottom of range", []Value{math.MinInt64 + 1, math.MinInt64}, math.MinInt64, 2},
		{"top of range", []Value{math.MaxInt64, math.MaxInt64 - 3}, math.MaxInt64 - 3, 4},
		{"whole range", []Value{math.MaxInt64, math.MinInt64}, 0, 0},
	} {
		r := New("R", "X", "Y")
		for _, v := range tc.vals {
			r.Add(0, v)
		}
		base, span := r.DenseColumn(1)
		if base != tc.base || span != tc.span {
			t.Errorf("%s: DenseColumn = (%d, %d), want (%d, %d)", tc.name, base, span, tc.base, tc.span)
		}
	}
}

func TestAttrIndex(t *testing.T) {
	r := New("R", "A", "B", "C")
	if r.AttrIndex("B") != 1 {
		t.Errorf("AttrIndex(B) = %d, want 1", r.AttrIndex("B"))
	}
	if r.AttrIndex("Z") != -1 {
		t.Errorf("AttrIndex(Z) = %d, want -1", r.AttrIndex("Z"))
	}
	if _, err := r.AttrIndexes([]string{"A", "Z"}); err == nil {
		t.Error("AttrIndexes with unknown attr should fail")
	}
}

func TestSharedAttrs(t *testing.T) {
	r := New("R", "A", "B", "C")
	s := New("S", "B", "D", "A")
	got := r.SharedAttrs(s)
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("SharedAttrs = %v, want [A B]", got)
	}
}

func TestProject(t *testing.T) {
	r := New("R", "A", "B", "C")
	r.AddWeighted(1, 10, 20, 30)
	r.AddWeighted(2, 11, 21, 31)
	p, err := r.Project("C", "A")
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.Tuples[0][0] != 30 || p.Tuples[0][1] != 10 {
		t.Fatalf("Project wrong: %v", p.Tuples)
	}
	if p.Weights[1] != 2 {
		t.Error("Project lost weights")
	}
	if _, err := r.Project("Z"); err == nil {
		t.Error("Project unknown attr should fail")
	}
}

func TestSelect(t *testing.T) {
	r := New("R", "A")
	for i := Value(0); i < 10; i++ {
		r.AddWeighted(float64(i), i)
	}
	s := r.Select(func(tp Tuple, w float64) bool { return tp[0]%2 == 0 })
	if s.Len() != 5 {
		t.Fatalf("Select len = %d, want 5", s.Len())
	}
}

func TestSortByWeight(t *testing.T) {
	r := New("R", "A")
	r.AddWeighted(3, 1)
	r.AddWeighted(1, 2)
	r.AddWeighted(2, 3)
	r.SortByWeight()
	if r.Weights[0] != 1 || r.Weights[2] != 3 {
		t.Fatalf("SortByWeight order = %v", r.Weights)
	}
	if r.Tuples[0][0] != 2 {
		t.Error("tuples not permuted with weights")
	}
}

func TestDedupKeepsLightest(t *testing.T) {
	r := New("R", "A", "B")
	r.AddWeighted(5, 1, 1)
	r.AddWeighted(3, 1, 1)
	r.AddWeighted(4, 2, 2)
	r.AddWeighted(4, 1, 1)
	r.Dedup()
	if r.Len() != 2 {
		t.Fatalf("Dedup len = %d, want 2", r.Len())
	}
	for i, tp := range r.Tuples {
		if tp[0] == 1 && r.Weights[i] != 3 {
			t.Errorf("dedup kept weight %g for (1,1), want 3", r.Weights[i])
		}
	}
}

func TestEqualAsSet(t *testing.T) {
	a := New("A", "X")
	b := New("B", "X")
	a.AddWeighted(1, 7)
	a.AddWeighted(2, 8)
	b.AddWeighted(2, 8)
	b.AddWeighted(1, 7)
	if !a.EqualAsSet(b) {
		t.Error("permuted relations should be set-equal")
	}
	b.AddWeighted(3, 9)
	if a.EqualAsSet(b) {
		t.Error("different cardinalities should not be equal")
	}
	c := New("C", "Y")
	if a.EqualAsSet(c) {
		t.Error("different schemas should not be equal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New("R", "A")
	r.AddWeighted(1, 42)
	c := r.Clone()
	c.Tuples[0][0] = 99
	c.Weights[0] = 9
	if r.Tuples[0][0] != 42 || r.Weights[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestStringTruncates(t *testing.T) {
	r := New("R", "A")
	for i := Value(0); i < 30; i++ {
		r.Add(i)
	}
	s := r.String()
	if !strings.Contains(s, "more") {
		t.Error("String should truncate long relations")
	}
}

func TestIndexSingleColumn(t *testing.T) {
	r := New("R", "A", "B")
	r.Add(1, 10)
	r.Add(2, 20)
	r.Add(1, 11)
	ix, err := NewIndex(r, "A")
	if err != nil {
		t.Fatal(err)
	}
	rows := ix.Lookup([]Value{1})
	if len(rows) != 2 {
		t.Fatalf("Lookup(1) = %v, want 2 rows", rows)
	}
	if len(ix.Lookup([]Value{3})) != 0 {
		t.Error("Lookup(3) should be empty")
	}
	if ix.Keys() != 2 {
		t.Errorf("Keys = %d, want 2", ix.Keys())
	}
	if ix.MaxFanout() != 2 {
		t.Errorf("MaxFanout = %d, want 2", ix.MaxFanout())
	}
}

func TestIndexMultiColumn(t *testing.T) {
	r := New("R", "A", "B", "C")
	r.Add(1, 10, 100)
	r.Add(1, 10, 101)
	r.Add(1, 11, 102)
	ix, err := NewIndex(r, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Lookup([]Value{1, 10})); got != 2 {
		t.Fatalf("Lookup(1,10) rows = %d, want 2", got)
	}
	if got := ix.Find([]Value{1, 11}); got != 1 {
		t.Fatalf("Find(1,11) = group %d, want 1", got)
	}
	if got := ix.Find([]Value{1, 12}); got != -1 {
		t.Fatalf("Find of an absent key = %d, want -1", got)
	}
	if ix.Keys() != 2 {
		t.Errorf("Keys = %d, want 2", ix.Keys())
	}
}

func TestIndexZeroColumns(t *testing.T) {
	r := New("R", "A")
	r.Add(1)
	r.Add(2)
	ix, err := NewIndex(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ix.Lookup(nil)); got != 2 {
		t.Fatalf("zero-col Lookup = %d rows, want 2", got)
	}
}

func TestIndexUnknownAttr(t *testing.T) {
	r := New("R", "A")
	if _, err := NewIndex(r, "Z"); err == nil {
		t.Error("NewIndex on unknown attr should fail")
	}
}

// Property: index lookups return exactly the rows with matching values.
func TestIndexMatchesScanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		r := New("R", "A")
		for _, v := range vals {
			r.Add(Value(v % 16))
		}
		ix := MustIndex(r, "A")
		for key := Value(0); key < 16; key++ {
			var want []int32
			for i, tp := range r.Tuples {
				if tp[0] == key {
					want = append(want, int32(i))
				}
			}
			got := ix.Lookup([]Value{key})
			if len(got) != len(want) {
				return false
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	a := d.Code("boston")
	b := d.Code("portland")
	if a2 := d.Code("boston"); a2 != a {
		t.Error("Code not stable")
	}
	if d.String(b) != "portland" {
		t.Errorf("String(%d) = %q", b, d.String(b))
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if _, ok := d.Lookup("seattle"); ok {
		t.Error("Lookup of unseen string should fail")
	}
	if d.String(99) != "" {
		t.Error("String out of range should be empty")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := New("R", "A", "B")
	r.AddWeighted(1.5, 1, 2)
	r.AddWeighted(2.25, 3, 4)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "R", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.EqualAsSet(got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", r, got)
	}
}

func TestCSVWithDictionary(t *testing.T) {
	in := "city,score\nboston,1.5\nportland,2.5\nboston,3.5\n"
	d := NewDictionary()
	r, err := ReadCSV(strings.NewReader(in), "cities", true, d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Tuples[0][0] != r.Tuples[2][0] {
		t.Error("same string should map to same code")
	}
	if d.String(r.Tuples[1][0]) != "portland" {
		t.Error("dictionary decode failed")
	}
}

func TestCSVMixedColumnEncodedConsistently(t *testing.T) {
	// A column holding a numeric-looking cell and a string cell must be
	// dictionary-encoded as a whole; cell-by-cell typing would give "7" a
	// numeric code and "abc" a dictionary code, and the two relations
	// below would never join on their shared values.
	d := NewDictionary()
	r, err := ReadCSV(strings.NewReader("k,w\n7,1\nabc,2\n"), "R", true, d)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ReadCSV(strings.NewReader("k,w\nabc,3\n7,4\n"), "S", true, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []*Relation{r, s} {
		for i, tp := range rel.Tuples {
			if tp[0] < DictBase {
				t.Fatalf("%s row %d: mixed column cell encoded numerically (%d)", rel.Name, i, tp[0])
			}
		}
	}
	if r.Tuples[0][0] != s.Tuples[1][0] {
		t.Error(`"7" must get the same dictionary code in both relations`)
	}
	if r.Tuples[1][0] != s.Tuples[0][0] {
		t.Error(`"abc" must get the same dictionary code in both relations`)
	}
	if r.Tuples[0][0] == r.Tuples[1][0] {
		t.Error(`"7" and "abc" must get distinct codes`)
	}

	// A fully numeric column stays numerically encoded even when another
	// column of the same file is a string column.
	m, err := ReadCSV(strings.NewReader("a,b,w\n1,x,0\n2,7,0\n"), "M", true, d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tuples[0][0] != 1 || m.Tuples[1][0] != 2 {
		t.Errorf("numeric column re-encoded: %v", m.Tuples)
	}
	if m.Tuples[0][1] < DictBase || m.Tuples[1][1] < DictBase {
		t.Errorf("mixed column not dictionary-encoded: %v", m.Tuples)
	}

	// In a string column, "07" and "7" are distinct values (numeric
	// cell-by-cell parsing used to conflate them).
	n, err := ReadCSV(strings.NewReader("k,w\n07,0\n7,0\nz,0\n"), "N", true, d)
	if err != nil {
		t.Fatal(err)
	}
	if n.Tuples[0][0] == n.Tuples[1][0] {
		t.Error(`"07" and "7" must stay distinct in a string column`)
	}

	// Mixed column without a dictionary still fails with guidance.
	if _, err := ReadCSV(strings.NewReader("k,w\n7,1\nabc,2\n"), "R", true, nil); err == nil {
		t.Error("mixed column without dictionary should fail")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "R", false, nil); err == nil {
		t.Error("empty CSV should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,w\nx,1\n"), "R", true, nil); err == nil {
		t.Error("non-numeric without dictionary should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,w\n1,notafloat\n"), "R", true, nil); err == nil {
		t.Error("bad weight should fail")
	}
	if _, err := ReadCSV(strings.NewReader("w\n1\n"), "R", true, nil); err == nil {
		t.Error("weight-only schema should fail")
	}
	// strconv parses "NaN", but NaN has no rank; ±Inf do.
	if _, err := ReadCSV(strings.NewReader("a,w\n1,2\n2,NaN\n"), "R", true, nil); err == nil || !strings.Contains(err.Error(), "relation R line 3") {
		t.Errorf("NaN weight should fail naming relation and line, got %v", err)
	}
	if r, err := ReadCSV(strings.NewReader("a,w\n1,+Inf\n2,-Inf\n"), "R", true, nil); err != nil || !math.IsInf(r.Weights[0], 1) || !math.IsInf(r.Weights[1], -1) {
		t.Errorf("±Inf weights should parse, got %v, %v", r, err)
	}
}

// TestSubsetAndSameContent: Subset keeps r's name, attributes and the
// given rows in order, and is nil arrays for no row; SameContent
// compares rows in order and weights bit for bit, whatever the name or
// the arrays holding them.
func TestSubsetAndSameContent(t *testing.T) {
	r := New("R", "A", "B")
	for i := Value(0); i < 6; i++ {
		r.AddWeighted(float64(i), i, i%2)
	}
	s := r.Subset([]int32{1, 3, 4})
	if s.Name != "R" || s.Len() != 3 || !slices.Equal(s.Tuples[1], Tuple{3, 1}) || s.Weights[2] != 4 {
		t.Fatalf("Subset(1, 3, 4) = %v", s)
	}
	if e := r.Subset(nil); e.Tuples != nil || e.Weights != nil || !slices.Equal(e.Attrs, r.Attrs) {
		t.Fatalf("Subset(nil) = %#v", e)
	}
	c := r.Clone()
	c.Name = "other"
	if !SameContent(r, c) || !SameContent(s, r.Subset([]int32{1, 3, 4})) || !SameContent(New("E", "A"), New("F", "B")) {
		t.Error("equal rows in other arrays compare unequal")
	}
	swapped := r.Clone()
	swapped.Tuples[0], swapped.Tuples[1] = swapped.Tuples[1], swapped.Tuples[0]
	reweighted := r.Clone()
	reweighted.Weights[2] = 9
	for name, other := range map[string]*Relation{
		"row order": swapped, "a weight": reweighted, "a row fewer": r.Subset([]int32{0, 1, 2, 3, 4}),
	} {
		if SameContent(r, other) {
			t.Errorf("relations that differ in %s compare equal", name)
		}
	}
	if SameContent(New("E", "A"), New("E", "A", "B")) {
		t.Error("empty relations of different arity compare equal")
	}
}
