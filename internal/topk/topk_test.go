package topk

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/workload"
)

func toLists(ws []*workload.ScoredList) []*List {
	out := make([]*List, len(ws))
	for i, w := range ws {
		l, err := NewList(w.IDs, w.Grades)
		if err != nil {
			panic(err)
		}
		out[i] = l
	}
	return out
}

func candidatesEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Scores must match; IDs may differ among exact ties.
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

func TestNewListValidation(t *testing.T) {
	if _, err := NewList([]int{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewList([]int{1, 2}, []float64{0.1, 0.9}); err == nil {
		t.Error("ascending grades should fail")
	}
	if _, err := NewList([]int{1, 2}, []float64{0.9, 0.1}); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
}

func TestTAHandMade(t *testing.T) {
	// Two lists; object 1 is best overall.
	l1, _ := NewList([]int{1, 2, 3}, []float64{0.9, 0.8, 0.1})
	l2, _ := NewList([]int{1, 3, 2}, []float64{0.9, 0.5, 0.4})
	got, stats := TA([]*List{l1, l2}, 1, SumAgg{})
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("TA top-1 = %v, want object 1", got)
	}
	if got[0].Score != 1.8 {
		t.Errorf("score = %g, want 1.8", got[0].Score)
	}
	// TA should stop after depth 1: threshold after depth 1 = 0.9+0.9 =
	// 1.8 ≤ top score 1.8 → stop. 2 sorted accesses, 2 random.
	if stats.Sorted != 2 {
		t.Errorf("sorted accesses = %d, want 2", stats.Sorted)
	}
}

func TestTAMatchesBruteForce(t *testing.T) {
	for _, corr := range []workload.Correlation{workload.Independent, workload.Correlated, workload.AntiCorrelated} {
		lists := toLists(workload.Lists(3, 300, corr, 42))
		for _, k := range []int{1, 5, 20} {
			want := BruteForce(lists, k, SumAgg{})
			got, _ := TA(lists, k, SumAgg{})
			if !candidatesEqual(got, want) {
				t.Fatalf("corr=%v k=%d: TA %v != brute force %v", corr, k, got, want)
			}
		}
	}
}

func TestFAMatchesBruteForce(t *testing.T) {
	lists := toLists(workload.Lists(2, 200, workload.Independent, 7))
	for _, k := range []int{1, 5, 10} {
		want := BruteForce(lists, k, SumAgg{})
		got, _ := FA(lists, k, SumAgg{})
		if !candidatesEqual(got, want) {
			t.Fatalf("k=%d: FA %v != brute force %v", k, got, want)
		}
	}
}

func TestNRAMatchesBruteForce(t *testing.T) {
	for _, corr := range []workload.Correlation{workload.Independent, workload.Correlated} {
		lists := toLists(workload.Lists(2, 150, corr, 9))
		for _, k := range []int{1, 5} {
			want := BruteForce(lists, k, SumAgg{})
			got, _ := NRA(lists, k)
			if !candidatesEqual(got, want) {
				t.Fatalf("corr=%v k=%d: NRA %v != brute force %v", corr, k, got, want)
			}
		}
	}
}

// Property: TA equals brute force on random lists.
func TestTACorrectnessProperty(t *testing.T) {
	f := func(seed uint16, kRaw, mRaw uint8) bool {
		m := int(mRaw)%3 + 2
		k := int(kRaw)%10 + 1
		lists := toLists(workload.Lists(m, 100, workload.Independent, uint64(seed)))
		want := BruteForce(lists, k, SumAgg{})
		got, _ := TA(lists, k, SumAgg{})
		return candidatesEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TA accesses far fewer tuples than FA on correlated inputs (its best
// case); the gap collapses on anti-correlated inputs (§2's tradeoff).
func TestTAvsFAAccessCounts(t *testing.T) {
	n := 2000
	corr := toLists(workload.Lists(2, n, workload.Correlated, 5))
	_, taCorr := TA(corr, 10, SumAgg{})
	_, faCorr := FA(corr, 10, SumAgg{})
	if taCorr.Sorted >= faCorr.Sorted+faCorr.Random {
		t.Errorf("correlated: TA total accesses %d not below FA %d",
			taCorr.Sorted+taCorr.Random, faCorr.Sorted+faCorr.Random)
	}
	if taCorr.Sorted > n/2 {
		t.Errorf("correlated: TA scanned %d of %d — should stop early", taCorr.Sorted, 2*n)
	}
	anti := toLists(workload.Lists(2, n, workload.AntiCorrelated, 5))
	_, taAnti := TA(anti, 10, SumAgg{})
	if taAnti.Sorted <= taCorr.Sorted {
		t.Errorf("anti-correlated TA accesses (%d) should exceed correlated (%d)",
			taAnti.Sorted, taCorr.Sorted)
	}
}

// The hidden-winner instance of §2: the best object is at the bottom of
// every list, so TA must descend almost everything — access-optimality
// does not protect against adversarial inputs.
func TestTAHiddenWinnerWorstCase(t *testing.T) {
	n := 500
	lists := toLists(workload.HiddenTopLists(2, n, 3))
	got, stats := TA(lists, 1, SumAgg{})
	want := BruteForce(lists, 1, SumAgg{})
	if !candidatesEqual(got, want) {
		t.Fatalf("TA %v != brute force %v", got, want)
	}
	if got[0].ID != n-1 {
		t.Fatalf("winner = %d, want hidden object %d", got[0].ID, n-1)
	}
	if stats.Sorted < n/2 {
		t.Errorf("TA stopped after %d sorted accesses; hidden winner should force a deep scan", stats.Sorted)
	}
}

func TestEdgeCases(t *testing.T) {
	if got, _ := TA(nil, 5, SumAgg{}); got != nil {
		t.Error("TA with no lists should return nothing")
	}
	l, _ := NewList([]int{1}, []float64{0.5})
	if got, _ := TA([]*List{l}, 0, SumAgg{}); got != nil {
		t.Error("TA with k=0 should return nothing")
	}
	// k larger than the number of objects.
	got, _ := TA([]*List{l}, 10, SumAgg{})
	if len(got) != 1 {
		t.Errorf("TA k>n returned %d", len(got))
	}
	got2, _ := FA([]*List{l}, 10, SumAgg{})
	if len(got2) != 1 {
		t.Errorf("FA k>n returned %d", len(got2))
	}
	got3, _ := NRA([]*List{l}, 10)
	if len(got3) != 1 {
		t.Errorf("NRA k>n returned %d", len(got3))
	}
}

// ---- rank join ----

func weightedRel(name string, attrs []string, rows [][]relation.Value, ws []float64) *relation.Relation {
	r := relation.New(name, attrs...)
	for i, row := range rows {
		r.AddWeighted(ws[i], row...)
	}
	return r
}

func TestScanDescending(t *testing.T) {
	r := weightedRel("R", []string{"A"}, [][]relation.Value{{1}, {2}, {3}}, []float64{0.5, 0.9, 0.1})
	s := NewScan(r)
	prev := math.Inf(1)
	count := 0
	for {
		_, sc, ok := s.Next()
		if !ok {
			break
		}
		if sc > prev {
			t.Fatal("scan not descending")
		}
		prev = sc
		count++
	}
	if count != 3 {
		t.Fatalf("scan yielded %d", count)
	}
	if !math.IsInf(s.Bound(), -1) {
		t.Error("drained scan bound should be -Inf")
	}
}

func TestHRJNBasic(t *testing.T) {
	// R(A,B) ⋈ S(B,C); scores are benefits.
	r := weightedRel("R", []string{"A", "B"},
		[][]relation.Value{{1, 10}, {2, 20}}, []float64{0.9, 0.5})
	s := weightedRel("S", []string{"B", "C"},
		[][]relation.Value{{10, 100}, {20, 200}}, []float64{0.8, 0.7})
	op := NewHRJN(NewScan(r), NewScan(s))
	res := TopK(op, 10)
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	if math.Abs(res[0].Score-1.7) > 1e-9 { // 0.9+0.8
		t.Errorf("top score = %g, want 1.7", res[0].Score)
	}
	if math.Abs(res[1].Score-1.2) > 1e-9 { // 0.5+0.7
		t.Errorf("second score = %g, want 1.2", res[1].Score)
	}
}

// Reference top-k join: join everything, sort by total score descending.
func bruteForceJoin(rels []*relation.Relation) []float64 {
	cur := rels[0].Clone()
	for _, r := range rels[1:] {
		next := relation.New("j", append(append([]string{}, cur.Attrs...), diffAttrs(r, cur)...)...)
		ix := relation.MustIndex(r, cur.SharedAttrs(r)...)
		lCols, _ := cur.AttrIndexes(cur.SharedAttrs(r))
		key := make([]relation.Value, len(lCols))
		keep := keepCols(r, cur)
		for i, lt := range cur.Tuples {
			for k, c := range lCols {
				key[k] = lt[c]
			}
			for _, ri := range ix.Lookup(key) {
				tp := append(append(relation.Tuple{}, lt...), pick(r.Tuples[ri], keep)...)
				next.AddTuple(tp, cur.Weights[i]+r.Weights[ri])
			}
		}
		cur = next
	}
	ws := append([]float64(nil), cur.Weights...)
	// Descending.
	for i := 0; i < len(ws); i++ {
		for j := i + 1; j < len(ws); j++ {
			if ws[j] > ws[i] {
				ws[i], ws[j] = ws[j], ws[i]
			}
		}
	}
	return ws
}

func diffAttrs(r *relation.Relation, base *relation.Relation) []string {
	var out []string
	for _, a := range r.Attrs {
		if base.AttrIndex(a) < 0 {
			out = append(out, a)
		}
	}
	return out
}

func keepCols(r *relation.Relation, base *relation.Relation) []int {
	var out []int
	for i, a := range r.Attrs {
		if base.AttrIndex(a) < 0 {
			out = append(out, i)
		}
	}
	return out
}

func pick(t relation.Tuple, cols []int) relation.Tuple {
	out := make(relation.Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

func TestHRJNMatchesBruteForce(t *testing.T) {
	rng := workload.NewRand(11)
	mk := func(name, a1, a2 string) *relation.Relation {
		r := relation.New(name, a1, a2)
		for i := 0; i < 60; i++ {
			r.AddWeighted(rng.Float64(), relation.Value(rng.Intn(6)), relation.Value(rng.Intn(6)))
		}
		return r
	}
	rels := []*relation.Relation{mk("R", "A", "B"), mk("S", "B", "C"), mk("T", "C", "D")}
	root, _ := RankJoinTree(rels...)
	want := bruteForceJoin(rels)
	got := TopK(root, len(want)+10)
	if len(got) != len(want) {
		t.Fatalf("HRJN yielded %d, brute force %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i]) > 1e-9 {
			t.Fatalf("rank %d: HRJN %g != %g", i, got[i].Score, want[i])
		}
	}
}

// Property: HRJN emits in non-increasing score order and matches brute
// force on random binary joins.
func TestHRJNOrderProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := workload.NewRand(uint64(seed))
		mk := func(name, a1, a2 string) *relation.Relation {
			r := relation.New(name, a1, a2)
			n := rng.Intn(40) + 1
			for i := 0; i < n; i++ {
				r.AddWeighted(rng.Float64(), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)))
			}
			return r
		}
		rels := []*relation.Relation{mk("R", "A", "B"), mk("S", "B", "C")}
		root, _ := RankJoinTree(rels...)
		want := bruteForceJoin(rels)
		got := TopK(root, len(want)+5)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i]) > 1e-9 {
				return false
			}
			if i > 0 && got[i].Score > got[i-1].Score+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Friendly case: top result comes from the tops of the inputs — HRJN
// stops early. Adversarial case: join partners sit at the bottom —
// HRJN buffers nearly everything (§2's worst case).
func TestHRJNDepthContrast(t *testing.T) {
	n := 500
	// Friendly: scores and join keys aligned: tuple i joins tuple i.
	rF := relation.New("R", "A", "B")
	sF := relation.New("S", "B", "C")
	for i := 0; i < n; i++ {
		w := 1 - float64(i)/float64(n)
		rF.AddWeighted(w, relation.Value(i), relation.Value(i))
		sF.AddWeighted(w, relation.Value(i), relation.Value(i))
	}
	opF := NewHRJN(NewScan(rF), NewScan(sF))
	TopK(opF, 1)
	friendlyPulls := opF.Stats.PulledLeft + opF.Stats.PulledRight

	// Adversarial: R's best tuples join S's worst tuples.
	rA := relation.New("R", "A", "B")
	sA := relation.New("S", "B", "C")
	for i := 0; i < n; i++ {
		w := 1 - float64(i)/float64(n)
		rA.AddWeighted(w, relation.Value(i), relation.Value(i))
		sA.AddWeighted(w, relation.Value(n-1-i), relation.Value(i))
	}
	opA := NewHRJN(NewScan(rA), NewScan(sA))
	TopK(opA, 1)
	adversePulls := opA.Stats.PulledLeft + opA.Stats.PulledRight

	if friendlyPulls > 20 {
		t.Errorf("friendly case pulled %d tuples, expected a handful", friendlyPulls)
	}
	if adversePulls < n/2 {
		t.Errorf("adversarial case pulled only %d of %d tuples", adversePulls, 2*n)
	}
}

func TestRankJoinTreePanicsOnSingle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RankJoinTree(relation.New("R", "A"))
}

func TestHRJNEmptyInput(t *testing.T) {
	r := relation.New("R", "A", "B")
	s := relation.New("S", "B", "C")
	s.AddWeighted(1, 1, 2)
	op := NewHRJN(NewScan(r), NewScan(s))
	if res := TopK(op, 5); len(res) != 0 {
		t.Fatalf("join with empty input yielded %d", len(res))
	}
}
