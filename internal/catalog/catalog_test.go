package catalog

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// TestCollectExact: Distinct and every Heavy count equal a brute-force
// count, on a Zipf stream whose hubs dominate and on a column with far
// more than 4 096 distinct values; Heavy holds, sorted, the heavyK−1
// entries that come first by descending count and ascending value, in
// a slice of exactly their length.
func TestCollectExact(t *testing.T) {
	rng := workload.NewRand(11)
	z := workload.NewZipf(rng, 1.2, 10000)
	r := relation.New("R", "Z", "W")
	for i := 0; i < 200000; i++ {
		r.Add(relation.Value(z.Next()), relation.Value(rng.Intn(20000)))
	}
	st := Collect(r)
	for c, name := range r.Attrs {
		truth := make(map[int64]int)
		for _, tup := range r.Tuples {
			truth[tup[c]]++
		}
		want := make([]HeavyHit, 0, len(truth))
		for v, n := range truth {
			want = append(want, HeavyHit{Value: v, Count: n})
		}
		// Descending count, then ascending value.
		slices.SortFunc(want, func(a, b HeavyHit) int {
			if a.Count != b.Count {
				return b.Count - a.Count
			}
			return cmp.Compare(a.Value, b.Value)
		})
		want = want[:heavyK-1]

		cs := st.Cols[c]
		if cs.Distinct != float64(len(truth)) {
			t.Fatalf("%s: Distinct = %g, want %d", name, cs.Distinct, len(truth))
		}
		if len(truth) <= 4096 && name == "W" {
			t.Fatalf("%s: only %d distinct values, the test needs more than 4096", name, len(truth))
		}
		if !slices.Equal(cs.Heavy, want) {
			t.Fatalf("%s: Heavy = %v, want %v", name, cs.Heavy, want)
		}
		if cap(cs.Heavy) > heavyK-1 {
			t.Fatalf("%s: cap(Heavy) = %d > %d", name, cap(cs.Heavy), heavyK-1)
		}
	}

	// A column Collect counts in an array gives the ColumnStats of the
	// map path, at both ends of the int64 range and on both sides of the
	// density rule. Column 0 is a dense column of a wider span, so the
	// shared array is cleared between columns of different spans.
	const n = 2000
	skewed := func() relation.Value { return relation.Value(rng.Intn(1 + rng.Intn(n))) }
	for _, tc := range []struct {
		name  string
		value func(i int) relation.Value
		dense bool
	}{
		{"min-int64", func(int) relation.Value { return math.MinInt64 + skewed() }, true},
		{"near-max-int64", func(int) relation.Value { return math.MaxInt64 - skewed() }, true},
		{"negative", func(int) relation.Value { return -1 - skewed() }, true},
		{"single-value", func(int) relation.Value { return 42 }, true},
		{"span-2n", between(5, 5+2*n-1, skewed), true},
		{"span-2n+1", between(5, 5+2*n, skewed), false},
		{"full-range", between(math.MinInt64, math.MaxInt64, skewed), false},
	} {
		r := relation.New(tc.name, "Wide", "X")
		for i := 0; i < n; i++ {
			r.Add(relation.Value(rng.Intn(2*n)), tc.value(i))
		}
		checkDenseMatchesMap(t, r, []bool{true, tc.dense})
	}
	empty := relation.New("empty", "X", "Y")
	if st := Collect(empty); st.Rows != 0 || len(st.Cols) != 2 {
		t.Fatalf("empty relation: %+v", st)
	}
	checkDenseMatchesMap(t, empty, []bool{false, false})
}

// between returns a column whose rows 0 and 1 hold lo and hi and whose
// other rows hold lo + next().
func between(lo, hi relation.Value, next func() relation.Value) func(i int) relation.Value {
	return func(i int) relation.Value {
		switch i {
		case 0:
			return lo
		case 1:
			return hi
		}
		return lo + next()
	}
}

// checkDenseMatchesMap checks that relation.DenseColumn finds each
// column of r dense as dense says, and that Collect gives every column
// the ColumnStats the map path gives.
func checkDenseMatchesMap(t *testing.T, r *relation.Relation, dense []bool) {
	t.Helper()
	st := Collect(r)
	sel := heavySelector{buf: make([]HeavyHit, 0, 2*keepHeavy)}
	for c, name := range r.Attrs {
		if _, span := r.DenseColumn(c); (span > 0) != dense[c] {
			t.Fatalf("%s.%s: span %d, want dense %v", r.Name, name, span, dense[c])
		}
		want := collectMap(r.Tuples, c, make(map[relation.Value]int32), &sel)
		if got := st.Cols[c]; got.Distinct != want.Distinct || !slices.Equal(got.Heavy, want.Heavy) {
			t.Fatalf("%s.%s: Collect gives %+v, the map path %+v", r.Name, name, got, want)
		}
	}
}

// TestCollectDenseTiesAtFloor: when the keepHeavy-th hit of a dense
// column ties with hits it does not keep, the array path keeps the tied
// hits of least value, as the map path does, and adds no other hit to
// the selector — with the tie at a count of 1, at a count above it,
// right below a dominant value whose count lands in the top
// count-of-counts bucket, at the largest count the floor can take, and
// with fewer hits than keepHeavy.
func TestCollectDenseTiesAtFloor(t *testing.T) {
	rng := workload.NewRand(5)
	for _, tc := range []struct {
		name   string
		counts func(v int) int
		values int
	}{
		{"all-once", func(int) int { return 1 }, 200},
		{"ties-at-2", func(v int) int { return 2 + min(1, v%4) }, 200},
		{"dominant", func(v int) int { return 1 + 5000*max(0, 1-v) + v%2 }, 150},
		{"few", func(v int) int { return 1 + v%3 }, 40},
		// keepHeavy hits at rows/keepHeavy, one above.
		{"crowded", func(v int) int { return 2 + v/keepHeavy }, keepHeavy + 1},
	} {
		var rows []relation.Value
		for v := 0; v < tc.values; v++ {
			for i := 0; i < tc.counts(v); i++ {
				rows = append(rows, relation.Value(v))
			}
		}
		for i := len(rows) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			rows[i], rows[j] = rows[j], rows[i]
		}
		r := relation.New(tc.name, "X", "Y")
		for _, v := range rows {
			r.Add(v, relation.Value(tc.values-1)-v)
		}
		checkDenseMatchesMap(t, r, []bool{true, true})
		// The array path adds exactly the hits it keeps, so the
		// selector never cuts its buffer.
		base, span := r.DenseColumn(0)
		sel := heavySelector{buf: make([]HeavyHit, 0, 2*keepHeavy)}
		cs := collectDense(r.Tuples, 0, base, make([]int32, span), make([]int32, r.Len()/keepHeavy+2), &sel)
		if want := min(tc.values, keepHeavy); len(cs.Heavy) != want || len(sel.buf) != want || sel.floor != (HeavyHit{}) {
			t.Fatalf("%s: %d heavy hits, %d added, cut at %v; want %d added and no cut", tc.name, len(cs.Heavy), len(sel.buf), sel.floor, want)
		}
	}
}

// TestHeavyValuesThreshold: a value whose count is exactly rows/heavyK
// is a skew hint, one with a single row fewer is not.
func TestHeavyValuesThreshold(t *testing.T) {
	const rows = 100 * heavyK
	r := relation.New("R", "X", "Y")
	add := func(v relation.Value, n int) {
		for i := 0; i < n; i++ {
			r.Add(v, 0)
		}
	}
	add(-1, rows/heavyK)
	add(-2, rows/heavyK-1)
	for v := 0; r.Len() < rows; v++ {
		add(relation.Value(v), 1)
	}
	cm := NewCostModel([]hypergraph.Edge{hypergraph.E("R", "X", "Y")}, []*relation.Relation{r}, nil)
	if got := cm.HeavyValues("X"); !slices.Equal(got, []int64{-1}) {
		t.Fatalf("HeavyValues(X) = %v, want [-1]", got)
	}
}

// TestCollectStats sanity-checks one Collect pass end to end.
func TestCollectStats(t *testing.T) {
	r := relation.New("R", "X", "Y")
	for i := 0; i < 100; i++ {
		r.Add(relation.Value(i%10), 7) // X: 10 distinct; Y: constant 7
	}
	st := Collect(r)
	if st.Rows != 100 || len(st.Cols) != 2 {
		t.Fatalf("Rows/Cols = %d/%d", st.Rows, len(st.Cols))
	}
	x, y := st.Cols[0], st.Cols[1]
	if x.Distinct != 10 || len(x.Heavy) != 10 || x.Heavy[0] != (HeavyHit{Value: 0, Count: 10}) {
		t.Fatalf("X stats: %+v", x)
	}
	if y.Distinct != 1 {
		t.Fatalf("Y stats: %+v", y)
	}
	if len(y.Heavy) != 1 || y.Heavy[0].Value != 7 || y.Heavy[0].Count != 100 {
		t.Fatalf("Y heavy hitters: %+v", y.Heavy)
	}
}

// TestCostModelSkewSensitivity: with identical cardinalities, the model
// must cost a join over a skewed shared column higher than one over a
// uniform column — the heavy-hitter refinement at work.
func TestCostModelSkewSensitivity(t *testing.T) {
	mk := func(name string, s float64, seed uint64) *relation.Relation {
		return workload.ZipfRelation(name, 5000, 500, s, 0, workload.UniformWeights(), seed)
	}
	edges := []hypergraph.Edge{hypergraph.E("R1", "B", "A"), hypergraph.E("R2", "B", "C")}
	uniform := NewCostModel(edges, []*relation.Relation{mk("R1", 0, 1), mk("R2", 0, 2)}, nil)
	skewed := NewCostModel(edges, []*relation.Relation{mk("R1", 1.2, 1), mk("R2", 1.2, 2)}, nil)
	if uniform == nil || skewed == nil {
		t.Fatal("cost model construction failed")
	}
	vars := []string{"A", "B", "C"}
	eu, es := uniform.EstimateVars(vars), skewed.EstimateVars(vars)
	if es <= eu {
		t.Fatalf("skewed join estimated at %g, uniform at %g — heavy hitters not reflected", es, eu)
	}
}

// TestChooseOrderValid: the chosen order covers exactly the atoms'
// variables, whatever atom shapes are thrown at it.
func TestChooseOrderValid(t *testing.T) {
	inst := workload.SkewedChordedCycle(100, 50, 3, 1.1, workload.UniformWeights(), 5)
	atoms := make([]wcoj.Atom, len(inst.H.Edges))
	for i, e := range inst.H.Edges {
		atoms[i] = wcoj.Atom{Rel: inst.Rels[i], Vars: e.Vars}
	}
	order, err := ChooseOrder(atoms)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.H.Vars()
	if len(order) != len(want) {
		t.Fatalf("order %v over vars %v", order, want)
	}
	seen := make(map[string]bool)
	for _, v := range order {
		seen[v] = true
	}
	for _, v := range want {
		if !seen[v] {
			t.Fatalf("order %v misses %s", order, v)
		}
	}
}

// TestChooseOrderBeamPinned pins the order ChooseOrder picks for a bag
// over 13 variables, beyond the exact subset DP, where the search is a
// beam over sets: a 13-cycle of random graphs of different sizes with
// two chords. The order's summed prefix estimate may not exceed that of
// the order the earlier beam over orders pinned.
func TestChooseOrderBeamPinned(t *testing.T) {
	const l = 13
	vars := make([]string, l)
	for i := range vars {
		vars[i] = fmt.Sprintf("V%02d", i)
	}
	var atoms []wcoj.Atom
	add := func(a, b int) {
		n := len(atoms)
		g := workload.RandomGraph(30+7*n, 60+40*n, workload.UniformWeights(), uint64(n+1))
		atoms = append(atoms, wcoj.Atom{Rel: g.Edges, Vars: []string{vars[a], vars[b]}})
	}
	for i := 0; i < l; i++ {
		add(i, (i+1)%l)
	}
	add(0, 6)
	add(3, 9)
	edges := make([]hypergraph.Edge, len(atoms))
	rels := make([]*relation.Relation, len(atoms))
	for i, a := range atoms {
		edges[i], rels[i] = hypergraph.E(fmt.Sprint(i), a.Vars...), a.Rel
	}
	m := NewCostModel(edges, rels, nil)
	prefixSum := func(order []string) float64 {
		sum := 0.0
		for i := range order {
			sum += m.EstimateVars(order[:i+1])
		}
		return sum
	}
	want := []string{"V01", "V00", "V06", "V02", "V05", "V04", "V03", "V09", "V08", "V07", "V10", "V12", "V11"}
	old := []string{"V01", "V00", "V06", "V02", "V03", "V04", "V05", "V09", "V08", "V07", "V10", "V12", "V11"}
	if got, before := prefixSum(want), prefixSum(old); got > before {
		t.Fatalf("order %v sums %g, the order pinned before sums %g", want, got, before)
	}
	for run := 0; run < 3; run++ {
		order, err := ChooseOrder(atoms)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, want) {
			t.Fatalf("run %d: order %v, want %v", run, order, want)
		}
	}
}

// TestEstimatesBitStable: a join column's heavy values that the other
// side lacks enter the estimate in a fixed order, so rebuilding the
// model on the same data gives bit-identical estimates.
func TestEstimatesBitStable(t *testing.T) {
	r1, r2 := relation.New("R1", "X", "A"), relation.New("R2", "X", "B")
	for v := 0; v < 300; v++ {
		for i := 0; i <= v%7; i++ {
			r1.Add(relation.Value(v), relation.Value(i))
		}
	}
	// R2's values, 1000 upwards, are none of R1's: all 63 of its heavy
	// values go unmatched.
	for v := 1000; v < 1200; v++ {
		for i := 0; i < 1+(v*37)%23; i++ {
			r2.Add(relation.Value(v), relation.Value(i))
		}
	}
	edges := []hypergraph.Edge{hypergraph.E("R1", "X", "A"), hypergraph.E("R2", "X", "B")}
	var want float64
	for run := 0; run < 100; run++ {
		m := NewCostModel(edges, []*relation.Relation{r1, r2}, nil)
		got := m.EstimateVars([]string{"A", "X", "B"})
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: estimate %v, run 0 gave %v", run, got, want)
		}
	}
}
