package repro

import (
	"regexp"
	"testing"
)

var hex64 = regexp.MustCompile(`^[0-9a-f]{64}$`)

func fpOf(t *testing.T, q *Query) string {
	t.Helper()
	fp, err := q.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !hex64.MatchString(fp) {
		t.Fatalf("fingerprint %q is not 64 hex chars", fp)
	}
	return fp
}

func pathTuples() ([]Tuple, []float64) {
	return []Tuple{{1, 10}, {2, 20}}, []float64{1, 2}
}

func TestFingerprintInsertionOrderIndependent(t *testing.T) {
	ts, ws := pathTuples()
	a := NewQuery().
		Rel("R", []string{"A", "B"}, ts, ws).
		Rel("S", []string{"B", "C"}, ts, ws).
		Rel("T", []string{"C", "D"}, ts, ws)
	b := NewQuery().
		Rel("T", []string{"C", "D"}, ts, ws).
		Rel("R", []string{"A", "B"}, ts, ws).
		Rel("S", []string{"B", "C"}, ts, ws)
	if fpOf(t, a) != fpOf(t, b) {
		t.Fatal("fingerprint depends on relation insertion order")
	}
}

func TestFingerprintIndependentOfNamesAndData(t *testing.T) {
	ts, ws := pathTuples()
	a := NewQuery().
		Rel("R", []string{"A", "B"}, ts, ws).
		Rel("S", []string{"B", "C"}, ts, ws)
	b := NewQuery().
		Rel("Edges1", []string{"A", "B"}, []Tuple{{7, 8}, {9, 9}, {1, 2}}, nil).
		Rel("Edges2", []string{"B", "C"}, []Tuple{{8, 7}}, []float64{42})
	if fpOf(t, a) != fpOf(t, b) {
		t.Fatal("fingerprint should cover shape only, not relation names or data")
	}
}

func TestFingerprintSensitiveToVariablePattern(t *testing.T) {
	ts, ws := pathTuples()
	path := NewQuery().
		Rel("R", []string{"A", "B"}, ts, ws).
		Rel("S", []string{"B", "C"}, ts, ws)
	// Same arities, different sharing: a cartesian pair of edges.
	disjoint := NewQuery().
		Rel("R", []string{"A", "B"}, ts, ws).
		Rel("S", []string{"C", "D"}, ts, ws)
	if fpOf(t, path) == fpOf(t, disjoint) {
		t.Fatal("fingerprint insensitive to variable sharing")
	}
	// Renaming variables is a different pattern by contract.
	renamed := NewQuery().
		Rel("R", []string{"X", "Y"}, ts, ws).
		Rel("S", []string{"Y", "Z"}, ts, ws)
	if fpOf(t, path) == fpOf(t, renamed) {
		t.Fatal("fingerprint should include variable names")
	}
}

func TestFingerprintSensitiveToArityAndMultiplicity(t *testing.T) {
	binary := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, nil).
		Rel("S", []string{"B", "C"}, []Tuple{{2, 3}}, nil)
	ternary := NewQuery().
		Rel("R", []string{"A", "B", "C"}, []Tuple{{1, 2, 3}}, nil).
		Rel("S", []string{"B", "C"}, []Tuple{{2, 3}}, nil)
	if fpOf(t, binary) == fpOf(t, ternary) {
		t.Fatal("fingerprint insensitive to arity")
	}
	// A duplicated atom pattern (self-join) must not collapse into one.
	single := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, nil)
	double := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, nil).
		Rel("R2", []string{"A", "B"}, []Tuple{{1, 2}}, nil)
	if fpOf(t, single) == fpOf(t, double) {
		t.Fatal("fingerprint insensitive to atom multiplicity")
	}
}

func TestFingerprintErrors(t *testing.T) {
	if _, err := NewQuery().Fingerprint(); err == nil {
		t.Fatal("empty query should not fingerprint")
	}
	bad := NewQuery().Rel("R", []string{"A"}, []Tuple{{1, 2}}, nil)
	if _, err := bad.Fingerprint(); err == nil {
		t.Fatal("invalid query should surface its builder error")
	}
}

func TestPreparedFingerprintMatchesQuery(t *testing.T) {
	ts, ws := pathTuples()
	q := NewQuery().
		Rel("R", []string{"A", "B"}, ts, ws).
		Rel("S", []string{"B", "C"}, ts, ws)
	want := fpOf(t, q)
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Fingerprint(); got != want {
		t.Fatalf("Prepared.Fingerprint = %s, want %s", got, want)
	}
}

// TestCycleOutAttrsUseUserVariables: cycle-shaped queries must report
// the user's variable names in walk order, not the engine's canonical
// A,B,C placeholders, and the streamed tuples must align with them.
func TestCycleOutAttrsUseUserVariables(t *testing.T) {
	e := []Tuple{{1, 2}, {2, 3}, {3, 1}}
	tri := NewQuery().
		Rel("E1", []string{"X", "Y"}, e, nil).
		Rel("E2", []string{"Y", "Z"}, e, nil).
		Rel("E3", []string{"Z", "X"}, e, nil)
	attrs, err := tri.OutAttrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 3 || attrs[0] != "X" || attrs[1] != "Y" || attrs[2] != "Z" {
		t.Fatalf("triangle OutAttrs = %v, want [X Y Z]", attrs)
	}
	p, err := Compile(tri)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.OutAttrs(); got[0] != "X" || got[1] != "Y" || got[2] != "Z" {
		t.Fatalf("Prepared.OutAttrs = %v, want [X Y Z]", got)
	}
	// The data holds the single directed triangle 1→2→3→1, so under the
	// (X,Y,Z) schema every solution must satisfy the edges X→Y, Y→Z,
	// Z→X — i.e. be a rotation of (1,2,3).
	rs, err := p.TopK(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("triangle solutions = %v, want the 3 rotations", rs)
	}
	for _, r := range rs {
		x, y, z := r.Tuple[0], r.Tuple[1], r.Tuple[2]
		if (y-x+3)%3 != 1 || (z-y+3)%3 != 1 {
			t.Fatalf("tuple %v does not follow the X→Y→Z→X walk", r.Tuple)
		}
	}
}

func TestPlanStatsReportsBuiltRankings(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 10}, {2, 20}}, []float64{1, 2}).
		Rel("S", []string{"B", "C"}, []Tuple{{10, 5}, {20, 6}}, []float64{3, 4})
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	st := p.PlanStats()
	if st.Kind != "acyclic" || st.Fingerprint != p.Fingerprint() {
		t.Fatalf("unexpected PlanStats header: %+v", st)
	}
	if st.Solutions != 2 {
		t.Fatalf("Solutions = %d, want 2", st.Solutions)
	}
	if len(st.Rankings) != 0 {
		t.Fatalf("no run yet, but Rankings = %+v", st.Rankings)
	}
	if _, err := p.TopK(1, WithRanking(SumCost)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TopK(1, WithRanking(MaxCost)); err != nil {
		t.Fatal(err)
	}
	st = p.PlanStats()
	if len(st.Rankings) != 2 || st.Rankings[0].Ranking != "max" || st.Rankings[1].Ranking != "sum" {
		t.Fatalf("Rankings = %+v, want [max sum]", st.Rankings)
	}

	// Cyclic: the triangle's bag sizes appear once its plan is built.
	tri := NewQuery().
		Rel("E1", []string{"A", "B"}, []Tuple{{1, 2}}, nil).
		Rel("E2", []string{"B", "C"}, []Tuple{{2, 3}}, nil).
		Rel("E3", []string{"C", "A"}, []Tuple{{3, 1}}, nil)
	tp, err := Compile(tri)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.TopK(1); err != nil {
		t.Fatal(err)
	}
	st = tp.PlanStats()
	if st.Kind != "triangle" || st.Solutions != 1 {
		t.Fatalf("unexpected triangle PlanStats: %+v", st)
	}
	if len(st.Rankings) != 1 || st.Rankings[0].TotalMaterialized != 1 {
		t.Fatalf("triangle Rankings = %+v, want one bag with 1 tuple", st.Rankings)
	}
}
