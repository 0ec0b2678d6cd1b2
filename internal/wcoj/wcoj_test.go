package wcoj

import (
	"testing"
	"testing/quick"

	"repro/internal/join"
	"repro/internal/ranking"
	"repro/internal/relation"
)

var sum = ranking.SumCost

func edgeRel(name string, edges [][2]relation.Value) *relation.Relation {
	r := relation.New(name, "src", "dst")
	for _, e := range edges {
		r.AddWeighted(float64(e[0])+float64(e[1])/1000, e[0], e[1])
	}
	return r
}

// triangleAtoms builds the triangle query R(A,B), S(B,C), T(C,A) over
// three copies of the same edge list.
func triangleAtoms(edges [][2]relation.Value) []Atom {
	return []Atom{
		{Rel: edgeRel("R", edges), Vars: []string{"A", "B"}},
		{Rel: edgeRel("S", edges), Vars: []string{"B", "C"}},
		{Rel: edgeRel("T", edges), Vars: []string{"C", "A"}},
	}
}

func TestGenericJoinTriangleBasic(t *testing.T) {
	// Graph with exactly the directed triangles (1,2,3) and (1,2,4).
	edges := [][2]relation.Value{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 1}}
	atoms := triangleAtoms(edges)
	out, instr, err := Materialize(atoms, []string{"A", "B", "C"}, sum)
	if err != nil {
		t.Fatal(err)
	}
	// Directed triangle query: every rotation of a triangle is a result.
	if out.Len() != 6 {
		t.Fatalf("triangles found = %d, want 6 (2 triangles × 3 rotations)\n%v", out.Len(), out)
	}
	if instr.Emits != 6 {
		t.Errorf("Emits = %d, want 6", instr.Emits)
	}
}

func TestGenericJoinMatchesBinaryPlan(t *testing.T) {
	edges := [][2]relation.Value{
		{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 1}, {3, 4}, {4, 5}, {5, 3}, {1, 5}, {5, 1},
	}
	atoms := triangleAtoms(edges)
	got, _, err := materializeRel(atoms, []string{"A", "B", "C"}, sum)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: binary plan over renamed relations.
	ra := relation.New("R", "A", "B")
	ra.Tuples, ra.Weights = atoms[0].Rel.Tuples, atoms[0].Rel.Weights
	rb := relation.New("S", "B", "C")
	rb.Tuples, rb.Weights = atoms[1].Rel.Tuples, atoms[1].Rel.Weights
	rc := relation.New("T", "C", "A")
	rc.Tuples, rc.Weights = atoms[2].Rel.Tuples, atoms[2].Rel.Weights
	want, _ := join.NewPlan(sum, ra, rb, rc).Execute()
	aligned, err := got.Project(want.Attrs...)
	if err != nil {
		t.Fatal(err)
	}
	if !aligned.EqualAsSet(want) {
		t.Fatalf("GenericJoin differs from binary plan:\ngot %v\nwant %v", aligned, want)
	}
}

func TestLeapfrogMatchesGenericJoin(t *testing.T) {
	edges := [][2]relation.Value{
		{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 1}, {3, 4}, {4, 5}, {5, 3}, {1, 5}, {5, 1}, {2, 5}, {5, 2},
	}
	atoms := triangleAtoms(edges)
	gj, _, err := materializeRel(atoms, []string{"A", "B", "C"}, sum)
	if err != nil {
		t.Fatal(err)
	}
	lf := relation.New("LF", "A", "B", "C")
	if _, err := LeapfrogTriejoin(atoms, []string{"A", "B", "C"}, sum, func(tp relation.Tuple, w float64) bool {
		lf.AddWeighted(w, tp...) // tp is borrowed: copy it
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !gj.EqualAsSet(lf) {
		t.Fatalf("LFTJ differs from GenericJoin:\n%v\n%v", gj, lf)
	}
}

// Property: GenericJoin equals the binary plan on random path queries
// R(A,B) ⋈ S(B,C).
func TestGenericJoinPathProperty(t *testing.T) {
	f := func(d1, d2 []uint8) bool {
		r := relation.New("R", "A", "B")
		for i, v := range d1 {
			r.AddWeighted(float64(i), relation.Value(v%6), relation.Value(v%4))
		}
		s := relation.New("S", "B", "C")
		for i, v := range d2 {
			s.AddWeighted(float64(i), relation.Value(v%4), relation.Value(v%5))
		}
		atoms := []Atom{{Rel: r, Vars: []string{"A", "B"}}, {Rel: s, Vars: []string{"B", "C"}}}
		got, _, err := materializeRel(atoms, []string{"A", "B", "C"}, sum)
		if err != nil {
			return false
		}
		want := join.HashJoin(r.Clone(), s.Clone(), sum, nil)
		// Rename for comparison: HashJoin keeps R's attr names.
		want.Attrs = []string{"A", "B", "C"}
		return got.EqualAsSet(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: LFTJ and GJ agree on random triangle instances.
func TestLeapfrogEqualsGenericJoinProperty(t *testing.T) {
	f := func(data []uint8) bool {
		var edges [][2]relation.Value
		for _, v := range data {
			edges = append(edges, [2]relation.Value{relation.Value(v % 7), relation.Value((v / 7) % 7)})
		}
		atoms := triangleAtoms(edges)
		gj, _, err1 := materializeRel(atoms, []string{"A", "B", "C"}, sum)
		if err1 != nil {
			return false
		}
		lf := relation.New("LF", "A", "B", "C")
		_, err2 := LeapfrogTriejoin(atoms, []string{"A", "B", "C"}, sum, func(tp relation.Tuple, w float64) bool {
			lf.AddWeighted(w, tp...) // tp is borrowed: copy it
			return true
		})
		return err2 == nil && gj.EqualAsSet(lf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBagSemantics(t *testing.T) {
	// Duplicate edges multiply results.
	r := relation.New("R", "src", "dst")
	r.AddWeighted(1, 1, 2)
	r.AddWeighted(2, 1, 2) // duplicate with different weight
	s := relation.New("S", "src", "dst")
	s.AddWeighted(10, 2, 3)
	atoms := []Atom{
		{Rel: r, Vars: []string{"A", "B"}},
		{Rel: s, Vars: []string{"B", "C"}},
	}
	out, _, err := Materialize(atoms, []string{"A", "B", "C"}, sum)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("bag join size = %d, want 2", out.Len())
	}
	if out.Weights[0]+out.Weights[1] != 23 {
		t.Errorf("weights = %v, want sum 23", out.Weights)
	}
}

func TestIsEmptyEarlyExit(t *testing.T) {
	// Large graph with a triangle early in value order: IsEmpty must not
	// scan everything.
	var edges [][2]relation.Value
	edges = append(edges, [2]relation.Value{1, 2}, [2]relation.Value{2, 3}, [2]relation.Value{3, 1})
	for i := relation.Value(10); i < 2000; i++ {
		edges = append(edges, [2]relation.Value{i, i + 10000}) // no triangles
	}
	atoms := triangleAtoms(edges)
	empty, instr, err := IsEmpty(atoms, []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if empty {
		t.Fatal("graph has a triangle")
	}
	if instr.Emits != 1 {
		t.Errorf("Emits = %d, want 1 (early exit)", instr.Emits)
	}
	if instr.Seeks > 100 {
		t.Errorf("Seeks = %d, expected early termination to keep this tiny", instr.Seeks)
	}
}

func TestIsEmptyTrue(t *testing.T) {
	edges := [][2]relation.Value{{1, 2}, {2, 3}, {3, 4}}
	empty, _, err := IsEmpty(triangleAtoms(edges), []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Error("acyclic edge set should have no triangles")
	}
}

func TestErrorCases(t *testing.T) {
	r := relation.New("R", "x", "y")
	r.Add(1, 2)
	if _, err := GenericJoin([]Atom{{Rel: r, Vars: []string{"A", "A"}}}, []string{"A"}, sum, nil); err == nil {
		t.Error("repeated variable in atom should fail")
	}
	if _, err := GenericJoin([]Atom{{Rel: r, Vars: []string{"A", "B"}}}, []string{"A", "B", "C"}, sum, emitNothing); err == nil {
		t.Error("uncovered variable should fail")
	}
	if _, err := GenericJoin([]Atom{{Rel: r, Vars: []string{"A", "B"}}}, []string{"A", "A"}, sum, emitNothing); err == nil {
		t.Error("duplicate variable in order should fail")
	}
	if _, err := GenericJoin([]Atom{{Rel: r, Vars: []string{"A"}}}, []string{"A"}, sum, emitNothing); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := GenericJoin([]Atom{{Rel: r, Vars: []string{"A", "Z"}}}, []string{"A"}, sum, emitNothing); err == nil {
		t.Error("variable missing from order should fail")
	}
}

func emitNothing(relation.Tuple, float64) bool { return true }

// materializeRel is Materialize with its rows as a relation of schema
// varOrder, for the tests that compare outputs as sets.
func materializeRel(atoms []Atom, varOrder []string, agg ranking.Aggregate) (*relation.Relation, *Instr, error) {
	out, instr, err := Materialize(atoms, varOrder, agg)
	if err != nil {
		return nil, nil, err
	}
	return out.Relation("GJ", varOrder), instr, nil
}

// The §3 hard instance: binary plans do Θ(n²) work while GenericJoin's
// seek count stays near-linear (the output itself is Θ(n)).
func TestHardInstanceWorkGap(t *testing.T) {
	n := 400
	var edges [][2]relation.Value
	for i := 1; i <= n/2; i++ {
		edges = append(edges, [2]relation.Value{relation.Value(i), 1})
		edges = append(edges, [2]relation.Value{1, relation.Value(i)})
	}
	atoms := triangleAtoms(edges)
	out, instr, err := Materialize(atoms, []string{"A", "B", "C"}, sum)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("hard instance should have triangles")
	}
	// Binary plan intermediate is (n/2)² = 40000; GJ seeks should be far
	// below that (roughly n^1.5·log n at worst).
	quad := (n / 2) * (n / 2)
	if instr.Seeks >= quad/4 {
		t.Errorf("GenericJoin Seeks = %d, not clearly below quadratic %d", instr.Seeks, quad)
	}
}

func TestSingleAtomEnumeration(t *testing.T) {
	r := relation.New("R", "x", "y")
	r.AddWeighted(5, 1, 2)
	r.AddWeighted(6, 3, 4)
	out, _, err := Materialize([]Atom{{Rel: r, Vars: []string{"A", "B"}}}, []string{"A", "B"}, sum)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("single atom enumeration size = %d, want 2", out.Len())
	}
}

func TestVariableOrderIndependence(t *testing.T) {
	edges := [][2]relation.Value{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 1}}
	atoms := triangleAtoms(edges)
	a, _, _ := materializeRel(atoms, []string{"A", "B", "C"}, sum)
	b, _, err := materializeRel(atoms, []string{"C", "A", "B"}, sum)
	if err != nil {
		t.Fatal(err)
	}
	bAligned, err := b.Project("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !a.EqualAsSet(bAligned) {
		t.Error("results must not depend on the variable order")
	}
}

func TestSuggestOrderCoversAllVars(t *testing.T) {
	edges := [][2]relation.Value{{1, 2}, {2, 3}, {3, 1}}
	atoms := triangleAtoms(edges)
	order := SuggestOrder(atoms)
	if len(order) != 3 {
		t.Fatalf("order = %v, want 3 vars", order)
	}
	seen := map[string]bool{}
	for _, v := range order {
		seen[v] = true
	}
	for _, v := range []string{"A", "B", "C"} {
		if !seen[v] {
			t.Fatalf("order %v missing %s", order, v)
		}
	}
}

func TestSuggestOrderPrefersSmallAtoms(t *testing.T) {
	big := relation.New("Big", "x", "y")
	for i := relation.Value(0); i < 1000; i++ {
		big.Add(i, i)
	}
	small := relation.New("Small", "x", "y")
	small.Add(1, 2)
	atoms := []Atom{
		{Rel: big, Vars: []string{"A", "B"}},
		{Rel: small, Vars: []string{"B", "C"}},
	}
	order := SuggestOrder(atoms)
	// C appears only in the small atom; it should come first.
	if order[0] != "C" {
		t.Errorf("order = %v, expected C first", order)
	}
}

func TestSuggestOrderIsValidForGenericJoin(t *testing.T) {
	edges := [][2]relation.Value{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 1}}
	atoms := triangleAtoms(edges)
	order := SuggestOrder(atoms)
	got, _, err := materializeRel(atoms, order, sum)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := materializeRel(atoms, []string{"A", "B", "C"}, sum)
	if err != nil {
		t.Fatal(err)
	}
	gotAligned, err := got.Project("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !gotAligned.EqualAsSet(want) {
		t.Error("suggested order changes results")
	}
}

// TestLeapfrogAllocsPerJoin pins that Leapfrog Triejoin allocates a
// fixed number of objects per join, whatever the input: the cursor
// buffers leapfrogVar works in are allocated once with the driver, not
// once per bound prefix. The count is what newJoin and newAtomState
// allocate once per join.
func TestLeapfrogAllocsPerJoin(t *testing.T) {
	const want = 50
	for _, n := range []int{100, 400, 1600} {
		atoms := triangleAtoms(randomEdges(n, n/8, 5))
		order := []string{"A", "B", "C"}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := LeapfrogTriejoin(atoms, order, sum, emitNothing); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("n=%d: %.0f allocations per join, want %d", n, allocs, want)
		}
	}
}
