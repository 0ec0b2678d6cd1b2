package join

import (
	"testing"
	"testing/quick"

	"repro/internal/ranking"
	"repro/internal/relation"
)

var sum = ranking.SumCost

func rel(name string, attrs []string, rows [][]relation.Value, weights []float64) *relation.Relation {
	r := relation.New(name, attrs...)
	for i, row := range rows {
		w := 0.0
		if weights != nil {
			w = weights[i]
		}
		r.AddWeighted(w, row...)
	}
	return r
}

func TestHashJoinBasic(t *testing.T) {
	r := rel("R", []string{"A", "B"}, [][]relation.Value{{1, 10}, {2, 20}}, []float64{1, 2})
	s := rel("S", []string{"B", "C"}, [][]relation.Value{{10, 100}, {10, 101}, {30, 300}}, []float64{5, 6, 7})
	out := HashJoin(r, s, sum, nil)
	if out.Len() != 2 {
		t.Fatalf("join size = %d, want 2", out.Len())
	}
	if len(out.Attrs) != 3 || out.Attrs[0] != "A" || out.Attrs[1] != "B" || out.Attrs[2] != "C" {
		t.Fatalf("schema = %v", out.Attrs)
	}
	// (1,10,100) w=6 and (1,10,101) w=7.
	for i, tp := range out.Tuples {
		if tp[0] != 1 || tp[1] != 10 {
			t.Errorf("row %d = %v", i, tp)
		}
	}
	if out.Weights[0]+out.Weights[1] != 13 {
		t.Errorf("weights = %v, want sum 13", out.Weights)
	}
}

func TestHashJoinMultiAttr(t *testing.T) {
	r := rel("R", []string{"A", "B"}, [][]relation.Value{{1, 2}, {1, 3}}, nil)
	s := rel("S", []string{"A", "B", "C"}, [][]relation.Value{{1, 2, 9}, {1, 3, 8}, {1, 4, 7}}, nil)
	out := HashJoin(r, s, sum, nil)
	if out.Len() != 2 {
		t.Fatalf("join size = %d, want 2", out.Len())
	}
	if len(out.Attrs) != 3 {
		t.Fatalf("schema = %v, want [A B C]", out.Attrs)
	}
}

func TestHashJoinCartesian(t *testing.T) {
	r := rel("R", []string{"A"}, [][]relation.Value{{1}, {2}}, []float64{1, 2})
	s := rel("S", []string{"B"}, [][]relation.Value{{10}, {20}, {30}}, []float64{1, 1, 1})
	var stats Stats
	out := HashJoin(r, s, sum, &stats)
	if out.Len() != 6 {
		t.Fatalf("cartesian size = %d, want 6", out.Len())
	}
	if stats.ProbeSteps != 6 {
		t.Errorf("ProbeSteps = %d, want 6", stats.ProbeSteps)
	}
}

func TestHashJoinEmptyInput(t *testing.T) {
	r := rel("R", []string{"A", "B"}, nil, nil)
	s := rel("S", []string{"B", "C"}, [][]relation.Value{{1, 2}}, nil)
	if out := HashJoin(r, s, sum, nil); out.Len() != 0 {
		t.Error("join with empty left should be empty")
	}
	if out := HashJoin(s, r, sum, nil); out.Len() != 0 {
		t.Error("join with empty right should be empty")
	}
}

// Property: |R ⋈ S| equals the sum over keys of |R_key|·|S_key|.
func TestJoinCardinalityProperty(t *testing.T) {
	f := func(rRows, sRows []uint8) bool {
		r := relation.New("R", "A", "B")
		for _, v := range rRows {
			r.Add(relation.Value(v), relation.Value(v%6))
		}
		s := relation.New("S", "B", "C")
		for _, v := range sRows {
			s.Add(relation.Value(v%6), relation.Value(v))
		}
		want := 0
		rc := make(map[relation.Value]int)
		for _, tp := range r.Tuples {
			rc[tp[1]]++
		}
		for _, tp := range s.Tuples {
			want += rc[tp[0]]
		}
		return HashJoin(r, s, sum, nil).Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSemiJoin(t *testing.T) {
	r := rel("R", []string{"A", "B"}, [][]relation.Value{{1, 10}, {2, 20}, {3, 30}}, []float64{1, 2, 3})
	s := rel("S", []string{"B", "C"}, [][]relation.Value{{10, 1}, {30, 2}}, nil)
	out := SemiJoin(r, s)
	if out.Len() != 2 {
		t.Fatalf("semijoin size = %d, want 2", out.Len())
	}
	if out.Tuples[0][0] != 1 || out.Tuples[1][0] != 3 {
		t.Errorf("semijoin rows = %v", out.Tuples)
	}
	if out.Weights[1] != 3 {
		t.Error("semijoin should preserve weights")
	}
	if len(out.Attrs) != 2 {
		t.Error("semijoin should preserve schema")
	}
}

// TestSemiJoinAllocationShape: a semi-join that drops a row allocates
// the same number of objects whether 10² or 10⁵ rows survive — one
// row-id vector and two exactly sized arrays, never a chain of
// append-grown ones — and one that drops none returns its input itself.
func TestSemiJoinAllocationShape(t *testing.T) {
	s := rel("S", []string{"B"}, [][]relation.Value{{7}}, nil)
	allocs := func(n int) float64 {
		r := relation.New("R", "A", "B")
		for i := 0; i < n; i++ {
			r.Add(relation.Value(i), 7)
		}
		if out := SemiJoin(r, s); out != r {
			t.Fatalf("n=%d: every row survives, but SemiJoin did not return its input", n)
		}
		r.Add(relation.Value(n), 8)
		var out *relation.Relation
		a := testing.AllocsPerRun(5, func() { out = SemiJoin(r, s) })
		if out.Len() != n || cap(out.Tuples) != n || cap(out.Weights) != n || out.Name != "R" {
			t.Fatalf("n=%d: %d rows survive, cap(Tuples)=%d cap(Weights)=%d, name %q", n, out.Len(), cap(out.Tuples), cap(out.Weights), out.Name)
		}
		return a
	}
	if a, b := allocs(100), allocs(100000); a != b {
		t.Fatalf("SemiJoin allocates %v objects for 10² surviving rows but %v for 10⁵", a, b)
	}
}

func TestSemiJoinNoSharedAttrs(t *testing.T) {
	r := rel("R", []string{"A"}, [][]relation.Value{{1}}, nil)
	s := rel("S", []string{"B"}, [][]relation.Value{{9}}, nil)
	if out := SemiJoin(r, s); out.Len() != 1 {
		t.Error("semijoin with non-empty unrelated relation keeps all tuples")
	}
	empty := rel("E", []string{"B"}, nil, nil)
	if out := SemiJoin(r, empty); out.Len() != 0 {
		t.Error("semijoin with empty unrelated relation is empty")
	}
}

func TestPlanExecuteChain(t *testing.T) {
	// Path: R(A,B) ⋈ S(B,C) ⋈ T(C,D).
	r := rel("R", []string{"A", "B"}, [][]relation.Value{{1, 2}}, []float64{1})
	s := rel("S", []string{"B", "C"}, [][]relation.Value{{2, 3}}, []float64{2})
	u := rel("T", []string{"C", "D"}, [][]relation.Value{{3, 4}}, []float64{4})
	res, stats := NewPlan(sum, r, s, u).Execute()
	if res.Len() != 1 {
		t.Fatalf("result size = %d, want 1", res.Len())
	}
	if res.Weights[0] != 7 {
		t.Errorf("weight = %g, want 7", res.Weights[0])
	}
	if stats.OutputTuples != 1 || stats.IntermediateTuples != 1 || stats.MaxIntermediate != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPlanEmptyAndSingle(t *testing.T) {
	res, _ := NewPlan(sum).Execute()
	if res.Len() != 0 {
		t.Error("empty plan should return empty relation")
	}
	r := rel("R", []string{"A"}, [][]relation.Value{{1}}, nil)
	res, stats := NewPlan(sum, r).Execute()
	if res.Len() != 1 || stats.IntermediateTuples != 0 {
		t.Error("single-relation plan is identity")
	}
}

// The AGM-hard triangle instance from §3: every binary order produces a
// quadratic intermediate even though the output is linear.
func TestTriangleHardInstanceBlowup(t *testing.T) {
	n := 100
	r := relation.New("R", "A", "B")
	s := relation.New("S", "B", "C")
	u := relation.New("T", "C", "A")
	for i := 1; i <= n/2; i++ {
		r.Add(relation.Value(i), 1)
		r.Add(1, relation.Value(i))
		s.Add(relation.Value(i), 1)
		s.Add(1, relation.Value(i))
		u.Add(relation.Value(i), 1)
		u.Add(1, relation.Value(i))
	}
	// Every pairwise join contains the (i,1,j) grid of size (n/2)².
	wantMin := (n / 2) * (n / 2)
	rels := []*relation.Relation{r, s, u}
	for _, o := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		_, stats := NewPlan(sum, rels[o[0]], rels[o[1]], rels[o[2]]).Execute()
		if stats.MaxIntermediate < wantMin {
			t.Errorf("order %v: max intermediate = %d, want >= %d", o, stats.MaxIntermediate, wantMin)
		}
	}
}

func TestMaxCostWeightCombination(t *testing.T) {
	r := rel("R", []string{"A", "B"}, [][]relation.Value{{1, 2}}, []float64{5})
	s := rel("S", []string{"B", "C"}, [][]relation.Value{{2, 3}}, []float64{3})
	out := HashJoin(r, s, ranking.MaxCost, nil)
	if out.Weights[0] != 5 {
		t.Errorf("max-combined weight = %g, want 5", out.Weights[0])
	}
}
