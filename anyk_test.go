package repro

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
)

// mustCompile compiles q, failing the test on error.
func mustCompile(t *testing.T, q *Query) *Prepared {
	t.Helper()
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFacadeAcyclicPath(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 10}, {1, 11}, {2, 10}}, []float64{1, 5, 2}).
		Rel("S", []string{"B", "C"}, []Tuple{{10, 100}, {10, 101}, {11, 100}}, []float64{10, 1, 0})
	got, err := mustCompile(t, q).TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 5}
	if len(got) != 3 {
		t.Fatalf("TopK returned %d results", len(got))
	}
	for i, r := range got {
		if r.Weight != want[i] {
			t.Errorf("rank %d weight = %g, want %g", i, r.Weight, want[i])
		}
	}
}

func TestFacadeOutAttrs(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, nil).
		Rel("S", []string{"B", "C"}, []Tuple{{2, 3}}, nil)
	attrs, err := q.OutAttrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 3 {
		t.Fatalf("OutAttrs = %v", attrs)
	}
}

func TestFacadeTriangle(t *testing.T) {
	// Cyclic triangle: auto-decomposed. Edges 1→2→3→1 with weights.
	edges := []Tuple{{1, 2}, {2, 3}, {3, 1}, {1, 3}}
	ws := []float64{0.1, 0.2, 0.3, 9}
	q := NewQuery().
		Rel("E1", []string{"A", "B"}, edges, ws).
		Rel("E2", []string{"B", "C"}, edges, ws).
		Rel("E3", []string{"C", "A"}, edges, ws)
	got, err := mustCompile(t, q).TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("want one triangle, got %d", len(got))
	}
	if math.Abs(got[0].Weight-0.6) > 1e-9 {
		t.Errorf("lightest triangle weight = %g, want 0.6", got[0].Weight)
	}
}

func TestFacadeFourCycle(t *testing.T) {
	g := workload.RandomGraph(10, 60, workload.UniformWeights(), 4)
	var tuples []Tuple
	var ws []float64
	for i, tp := range g.Edges.Tuples {
		tuples = append(tuples, tp)
		ws = append(ws, g.Edges.Weights[i])
	}
	q := NewQuery().
		Rel("E1", []string{"A", "B"}, tuples, ws).
		Rel("E2", []string{"B", "C"}, tuples, ws).
		Rel("E3", []string{"C", "D"}, tuples, ws).
		Rel("E4", []string{"D", "A"}, tuples, ws)
	it, err := mustCompile(t, q).Run()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	prev := math.Inf(-1)
	count := 0
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r.Weight < prev-1e-12 {
			t.Fatal("results not in ranking order")
		}
		prev = r.Weight
		count++
	}
	if count == 0 {
		t.Skip("random instance had no 4-cycles")
	}
}

func TestFacadeCycleDetectionPermuted(t *testing.T) {
	// The same 4-cycle declared in shuffled atom order must still match.
	e := []Tuple{{1, 2}, {2, 1}}
	q := NewQuery().
		Rel("E3", []string{"C", "D"}, e, nil).
		Rel("E1", []string{"A", "B"}, e, nil).
		Rel("E4", []string{"D", "A"}, e, nil).
		Rel("E2", []string{"B", "C"}, e, nil)
	p, err := Compile(q)
	if err != nil {
		t.Fatalf("permuted 4-cycle not recognised: %v", err)
	}
	if _, err := p.TopK(1); err != nil {
		t.Fatal(err)
	}
}

var relSink *Query

// TestRelKeepsArguments: Rel keeps the caller's tuples and weights
// instead of copying them, so what it allocates does not grow with the
// relation; and it caps them at their length, so a query over slices
// with spare capacity ranks exactly like one over tight slices — also
// after the caller appends into that capacity and the handle takes a
// delta.
func TestRelKeepsArguments(t *testing.T) {
	rel := func(n int) ([]Tuple, []float64) {
		tuples, weights := make([]Tuple, n), make([]float64, n)
		for i := range tuples {
			tuples[i], weights[i] = Tuple{Value(i), Value(i % 7)}, float64(i%5)
		}
		return tuples, weights
	}
	cost := func(n int) (objs, bytes float64) {
		tuples, weights := rel(n)
		add := func() { relSink = NewQuery().Rel("R", []string{"A", "B"}, tuples, weights) }
		objs = testing.AllocsPerRun(20, add)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			add()
		}
		runtime.ReadMemStats(&after)
		return objs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallObjs, smallBytes := cost(10)
	bigObjs, bigBytes := cost(10000)
	if smallObjs != bigObjs || bigBytes-smallBytes > 1024 {
		t.Fatalf("Rel allocates %v objects / %.0f B for 10 tuples but %v / %.0f B for 10 000: it copies its arguments",
			smallObjs, smallBytes, bigObjs, bigBytes)
	}

	r, rw := rel(40)
	s, sw := rel(30)
	for i := range s {
		s[i] = Tuple{Value(i % 7), Value(i)}
	}
	withSpare := func(ts []Tuple, ws []float64) ([]Tuple, []float64) {
		return append(make([]Tuple, 0, 2*len(ts)), ts...), append(make([]float64, 0, 2*len(ws)), ws...)
	}
	rt, rws := withSpare(r, rw)
	st, sws := withSpare(s, sw)
	compile := func(rt []Tuple, rw []float64, st []Tuple, sw []float64) *Prepared {
		p, err := Compile(NewQuery().
			Rel("R", []string{"A", "B"}, rt, rw).
			Rel("S", []string{"B", "C"}, st, sw))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tight, spare := compile(r, rw, s, sw), compile(rt, rws, st, sws)
	same := func(label string) {
		t.Helper()
		want, err := tight.TopK(0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spare.TopK(0)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, label, got, want)
	}
	same("before")
	junk := Tuple{3, 3}
	_ = append(rt, junk)
	_ = append(st, junk)
	_ = append(rws, -100)
	_ = append(sws, -100)
	delta := []Delta{{Rel: "R", Append: []Tuple{{100, 3}}, AppendWeights: []float64{0.5}}}
	for _, p := range []*Prepared{tight, spare} {
		if err := p.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
	}
	same("after appends and a delta")
	if rt[:len(rt)+1][len(rt)][0] != junk[0] || rws[:len(rws)+1][len(rws)] != -100 {
		t.Fatal("the handle wrote into the caller's spare capacity")
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Compile(NewQuery()); err == nil {
		t.Error("empty query should fail")
	}
	q := NewQuery().Rel("R", []string{"A", "B"}, []Tuple{{1}}, nil)
	if _, err := Compile(q); err == nil {
		t.Error("arity mismatch should fail")
	}
	q2 := NewQuery().Rel("R", []string{"A"}, []Tuple{{1}}, []float64{})
	if _, err := Compile(q2); err == nil {
		t.Error("weight length mismatch should fail")
	}
	// Surplus weights are a mismatch too, not a tail to drop.
	q3 := NewQuery().Rel("R", []string{"A"}, []Tuple{{1}}, []float64{1, 2})
	if _, err := Compile(q3); err == nil || !strings.Contains(err.Error(), "has 1 tuples but 2 weights") {
		t.Errorf("surplus weights should fail with the length error, got %v", err)
	}
	// Builder validation: duplicate relation names and repeated
	// variables within one atom are rejected with guidance.
	dup := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, nil).
		Rel("R", []string{"B", "C"}, []Tuple{{2, 3}}, nil)
	if _, err := Compile(dup); err == nil {
		t.Error("duplicate relation name should fail")
	}
	rep := NewQuery().Rel("R", []string{"A", "A"}, []Tuple{{1, 1}}, nil)
	if _, err := Compile(rep); err == nil {
		t.Error("repeated variable within one atom should fail")
	}
	// NaN has no rank (Less is false both ways); ±Inf do and stay legal.
	nan := NewQuery().Rel("R", []string{"A"}, []Tuple{{1}, {2}}, []float64{1, math.NaN()})
	if _, err := Compile(nan); err == nil || !strings.Contains(err.Error(), "relation R tuple 1 has a NaN weight") {
		t.Errorf("NaN weight should fail naming relation and row, got %v", err)
	}
	inf := NewQuery().Rel("R", []string{"A"}, []Tuple{{1}, {2}}, []float64{math.Inf(1), math.Inf(-1)})
	if got, err := mustCompile(t, inf).TopK(0, WithRanking(MaxCost)); err != nil || len(got) != 2 || !math.IsInf(got[0].Weight, -1) {
		t.Errorf("±Inf weights should rank, got %v, %v", got, err)
	}
	// A nil context is the default one, on Compile and on Run alike.
	//lint:ignore SA1012 the nil context is the case under test
	p, err := Compile(inf, WithContext(nil))
	if err != nil {
		t.Fatalf("Compile(WithContext(nil)): %v", err)
	}
	//lint:ignore SA1012 the nil context is the case under test
	if got, err := p.TopK(0, WithContext(nil)); err != nil || len(got) != 2 {
		t.Errorf("Run(WithContext(nil)): %v, %v", got, err)
	}
}

func TestFacadeFiveCycle(t *testing.T) {
	// 5-cycles compile to the fhtw-2 fan or one Generic-Join bag,
	// whichever the cost model prices cheaper. Build a graph with
	// exactly one directed 5-cycle 1→2→3→4→5→1.
	e := []Tuple{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}, {2, 9}, {9, 4}}
	w := []float64{1, 2, 3, 4, 5, 100, 100}
	q := NewQuery().
		Rel("E1", []string{"A", "B"}, e, w).
		Rel("E2", []string{"B", "C"}, e, w).
		Rel("E3", []string{"C", "D"}, e, w).
		Rel("E4", []string{"D", "E"}, e, w).
		Rel("E5", []string{"E", "A"}, e, w)
	got, err := mustCompile(t, q).TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("expected the 5-cycle, got %d results", len(got))
	}
	if got[0].Weight != 15 { // 1+2+3+4+5
		t.Errorf("weight = %g, want 15", got[0].Weight)
	}
}

func TestFacadeAllVariantsAgree(t *testing.T) {
	inst := workload.Path(3, 50, 6, workload.UniformWeights(), 2)
	build := func() *Query {
		q := NewQuery()
		for i, r := range inst.Rels {
			q.Rel(r.Name, inst.H.Edges[i].Vars, r.Tuples, r.Weights)
		}
		return q
	}
	var ref []Result
	for _, v := range []Variant{Eager, Lazy, Quick, All, Take2, Rec, Batch} {
		got, err := mustCompile(t, build()).TopK(0, WithVariant(v))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d results, ref %d", v, len(got), len(ref))
		}
		for i := range got {
			if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
				t.Fatalf("%s: weight mismatch at %d", v, i)
			}
		}
	}
}

func TestFacadeCount(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 10}, {1, 11}, {2, 10}}, nil).
		Rel("S", []string{"B", "C"}, []Tuple{{10, 100}, {10, 101}, {11, 100}}, nil)
	p := mustCompile(t, q)
	n, err := p.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("Count = %d, want 5", n)
	}
	empty, err := p.IsEmpty()
	if err != nil {
		t.Fatal(err)
	}
	if empty {
		t.Error("query has results")
	}
}

func TestFacadeCountCyclic(t *testing.T) {
	// Triangle 1→2→3→1: 3 rotations.
	e := []Tuple{{1, 2}, {2, 3}, {3, 1}}
	q := NewQuery().
		Rel("E1", []string{"A", "B"}, e, nil).
		Rel("E2", []string{"B", "C"}, e, nil).
		Rel("E3", []string{"C", "A"}, e, nil)
	n, err := mustCompile(t, q).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("triangle Count = %d, want 3 rotations", n)
	}
}

func TestFacadeIsEmptyTrue(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, nil).
		Rel("S", []string{"B", "C"}, []Tuple{{9, 9}}, nil)
	empty, err := mustCompile(t, q).IsEmpty()
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Error("disconnected join should be empty")
	}
}

func TestFacadeOutAttrsCyclic(t *testing.T) {
	e := []Tuple{{1, 2}}
	tri := NewQuery().
		Rel("E1", []string{"A", "B"}, e, nil).
		Rel("E2", []string{"B", "C"}, e, nil).
		Rel("E3", []string{"C", "A"}, e, nil)
	attrs, err := tri.OutAttrs()
	if err != nil || len(attrs) != 3 {
		t.Fatalf("triangle OutAttrs = %v, %v", attrs, err)
	}
	c5 := NewQuery().
		Rel("E1", []string{"A", "B"}, e, nil).
		Rel("E2", []string{"B", "C"}, e, nil).
		Rel("E3", []string{"C", "D"}, e, nil).
		Rel("E4", []string{"D", "E"}, e, nil).
		Rel("E5", []string{"E", "A"}, e, nil)
	attrs, err = c5.OutAttrs()
	if err != nil || len(attrs) != 5 {
		t.Fatalf("C5 OutAttrs = %v, %v", attrs, err)
	}
	// Non-cycle cyclic shapes go through the GHD planner and report the
	// query variables in sorted order.
	fused := NewQuery().
		Rel("E1", []string{"A", "B"}, e, nil).
		Rel("E2", []string{"B", "C"}, e, nil).
		Rel("E3", []string{"C", "A"}, e, nil).
		Rel("E4", []string{"B", "D"}, e, nil).
		Rel("E5", []string{"D", "C"}, e, nil)
	attrs, err = fused.OutAttrs()
	if err != nil {
		t.Fatalf("GHD shape OutAttrs: %v", err)
	}
	want := []string{"A", "B", "C", "D"}
	if len(attrs) != len(want) {
		t.Fatalf("GHD OutAttrs = %v, want %v", attrs, want)
	}
	for i := range want {
		if attrs[i] != want[i] {
			t.Fatalf("GHD OutAttrs = %v, want %v", attrs, want)
		}
	}
}

// TestFacadeTopKPropagatesErrors: a builder error surfaces at Compile,
// and a bad run option at every handle method that takes one.
func TestFacadeTopKPropagatesErrors(t *testing.T) {
	if _, err := Compile(NewQuery().Rel("R", []string{"A", "B"}, []Tuple{{1}}, nil)); err == nil {
		t.Error("Compile should propagate builder errors")
	}
	p := mustCompile(t, NewQuery().Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, nil))
	bogus := WithVariant("bogus")
	if _, err := p.TopK(1, bogus); err == nil {
		t.Error("TopK should propagate an unknown variant")
	}
	if _, err := p.Count(bogus); err == nil {
		t.Error("Count should propagate an unknown variant")
	}
	if _, err := p.IsEmpty(bogus); err == nil {
		t.Error("IsEmpty should propagate an unknown variant")
	}
}

func TestFacadeFourCycleCount(t *testing.T) {
	// Square 1→2→3→4→1: exactly 4 rotations.
	e := []Tuple{{1, 2}, {2, 3}, {3, 4}, {4, 1}}
	q := NewQuery().
		Rel("E1", []string{"A", "B"}, e, nil).
		Rel("E2", []string{"B", "C"}, e, nil).
		Rel("E3", []string{"C", "D"}, e, nil).
		Rel("E4", []string{"D", "A"}, e, nil)
	n, err := mustCompile(t, q).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("4-cycle Count = %d, want 4 rotations", n)
	}
}

func TestFacadeRankingFunctionsExported(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, []float64{3}).
		Rel("S", []string{"B", "C"}, []Tuple{{2, 4}}, []float64{5})
	for _, agg := range []interface {
		Name() string
	}{SumCost, SumBenefit, MaxCost, MinBenefit, ProductCost} {
		_ = agg.Name()
	}
	p := mustCompile(t, q)
	got, err := p.TopK(1, WithRanking(MaxCost))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Weight != 5 {
		t.Errorf("max-cost weight = %g, want 5", got[0].Weight)
	}
	got, err = p.TopK(1, WithRanking(ProductCost))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Weight != 15 {
		t.Errorf("product weight = %g, want 15", got[0].Weight)
	}
}
