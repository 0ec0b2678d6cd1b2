package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ranking"
	"repro/internal/workload"
)

// prepCases builds one query of each supported shape: acyclic path,
// triangle, 4-cycle, and a long (5-) cycle.
func prepCases() map[string]func() *Query {
	pathQ := func() *Query {
		inst := workload.Path(3, 60, 8, workload.UniformWeights(), 5)
		q := NewQuery()
		for i, r := range inst.Rels {
			q.Rel(r.Name, inst.H.Edges[i].Vars, r.Tuples, r.Weights)
		}
		return q
	}
	graphQ := func(vars [][]string) func() *Query {
		return func() *Query {
			g := workload.RandomGraph(12, 70, workload.UniformWeights(), 9)
			q := NewQuery()
			for i, vs := range vars {
				name := "E" + string(rune('1'+i))
				q.Rel(name, vs, g.Edges.Tuples, g.Edges.Weights)
			}
			return q
		}
	}
	return map[string]func() *Query{
		"acyclic":  pathQ,
		"triangle": graphQ([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}),
		"fourcycle": graphQ([][]string{
			{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "A"}}),
		"longcycle": graphQ([][]string{
			{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "E"}, {"E", "A"}}),
	}
}

// TestPreparedMatchesOneShot checks that a reused Prepared handle yields
// exactly the results of a handle compiled for that one call, for every
// shape and variant — including repeated Runs off the same handle.
func TestPreparedMatchesOneShot(t *testing.T) {
	for name, mk := range prepCases() {
		t.Run(name, func(t *testing.T) {
			p, err := Compile(mk())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []Variant{Eager, Lazy, Quick, All, Take2, Rec, Batch} {
				want, err := mustCompile(t, mk()).TopK(0, WithVariant(v))
				if err != nil {
					t.Fatalf("%s one-shot: %v", v, err)
				}
				for rep := 0; rep < 2; rep++ {
					got, err := p.TopK(0, WithRanking(SumCost), WithVariant(v))
					if err != nil {
						t.Fatalf("%s prepared run %d: %v", v, rep, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s run %d: %d results, one-shot %d", v, rep, len(got), len(want))
					}
					for i := range got {
						if math.Abs(got[i].Weight-want[i].Weight) > 1e-9 {
							t.Fatalf("%s run %d: weight mismatch at rank %d: %g vs %g",
								v, rep, i, got[i].Weight, want[i].Weight)
						}
					}
				}
			}
		})
	}
}

// TestPreparedRankingSwitch runs one handle under every ranking
// function and checks each against a handle compiled for that call.
func TestPreparedRankingSwitch(t *testing.T) {
	mk := prepCases()["acyclic"]
	p, err := Compile(mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range ranking.All {
		want, err := mustCompile(t, mk()).TopK(10, WithRanking(agg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.TopK(10, WithRanking(agg), WithVariant(Lazy))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d vs %d results", agg.Name(), len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Weight-want[i].Weight) > 1e-9 {
				t.Fatalf("%s: weight mismatch at %d", agg.Name(), i)
			}
		}
	}
}

// TestIteratorClose checks that Close mid-enumeration terminates
// cleanly with ErrClosed on every shape, and that a full natural drain
// followed by Close leaves Err nil.
func TestIteratorClose(t *testing.T) {
	for name, mk := range prepCases() {
		t.Run(name, func(t *testing.T) {
			p, err := Compile(mk())
			if err != nil {
				t.Fatal(err)
			}
			it, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := it.Next(); !ok {
				t.Skip("instance produced no results")
			}
			if err := it.Close(); err != nil {
				t.Fatalf("Close returned %v", err)
			}
			if _, ok := it.Next(); ok {
				t.Fatal("Next produced a result after Close")
			}
			if !errors.Is(it.Err(), ErrClosed) {
				t.Fatalf("Err after early Close = %v, want ErrClosed", it.Err())
			}
			if err := it.Close(); err != nil {
				t.Fatalf("second Close returned %v", err)
			}

			// A drained iterator closes cleanly.
			it2, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := it2.Next(); !ok {
					break
				}
			}
			it2.Close()
			if it2.Err() != nil {
				t.Fatalf("Err after drain+Close = %v, want nil", it2.Err())
			}
		})
	}
}

// TestIteratorCancel checks that context cancellation terminates
// enumeration with the context's error on every shape.
func TestIteratorCancel(t *testing.T) {
	for name, mk := range prepCases() {
		t.Run(name, func(t *testing.T) {
			p, err := Compile(mk())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			it, err := p.Run(WithContext(ctx))
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if _, ok := it.Next(); !ok {
				t.Skip("instance produced no results")
			}
			cancel()
			if _, ok := it.Next(); ok {
				t.Fatal("Next produced a result after cancellation")
			}
			if !errors.Is(it.Err(), context.Canceled) {
				t.Fatalf("Err after cancel = %v, want context.Canceled", it.Err())
			}
		})
	}
}

// TestPreparedWithK checks the per-run k limit.
func TestPreparedWithK(t *testing.T) {
	p, err := Compile(prepCases()["acyclic"]())
	if err != nil {
		t.Fatal(err)
	}
	it, err := p.Run(WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("WithK(3) yielded %d results", n)
	}
	all, err := p.TopK(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= 3 {
		t.Fatalf("instance too small for the limit to bite: %d results", len(all))
	}
}

// TestTopKResultsBelongToCaller: TopK copies every row it keeps, so a
// caller may write to its results. Overwriting every tuple of one TopK
// must leave a second TopK and a Run drain bit-identical to a copy of
// the first — on a triangle and a one-bag GHD, whose rows are the
// plan's own bag tuples, on the 4-cycle's union and on an acyclic path.
func TestTopKResultsBelongToCaller(t *testing.T) {
	cases := map[string]*Prepared{}
	for _, name := range []string{"triangle", "fourcycle", "acyclic"} {
		p, err := Compile(prepCases()[name]())
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = p
	}
	_, _, cases["one-bag ghd"] = oneBagGHD(t)
	same := func(a, b []Result) bool {
		return slices.EqualFunc(a, b, func(x, y Result) bool {
			return slices.Equal(x.Tuple, y.Tuple) && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
		})
	}
	for name, p := range cases {
		first, err := p.TopK(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(first) == 0 {
			t.Fatalf("%s: no results", name)
		}
		want := make([]Result, len(first))
		for i, r := range first {
			want[i] = Result{Tuple: slices.Clone(r.Tuple), Weight: r.Weight}
			for j := range r.Tuple {
				r.Tuple[j] = -1
			}
		}
		again, err := p.TopK(0)
		if err != nil {
			t.Fatal(err)
		}
		if !same(again, want) {
			t.Errorf("%s: writing to one TopK's results changed the next TopK", name)
		}
		it, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		var drained []Result
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			drained = append(drained, Result{Tuple: slices.Clone(r.Tuple), Weight: r.Weight})
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if !same(drained, want) {
			t.Errorf("%s: writing to one TopK's results changed a Run's rows", name)
		}
	}
}

// TestPreparedConcurrentRuns exercises one handle from several
// goroutines with mixed variants and rankings.
func TestPreparedConcurrentRuns(t *testing.T) {
	mk := prepCases()["acyclic"]
	p, err := Compile(mk())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustCompile(t, mk()).TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		v := []Variant{Lazy, Eager, Rec, Batch}[g%4]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.TopK(5, WithVariant(v))
			if err != nil {
				errs <- err
				return
			}
			for i := range got {
				if math.Abs(got[i].Weight-want[i].Weight) > 1e-9 {
					errs <- errors.New("concurrent run weight mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedCountAndIsEmpty checks the counting helpers on a handle
// against those of a handle compiled for that one call.
func TestPreparedCountAndIsEmpty(t *testing.T) {
	for name, mk := range prepCases() {
		t.Run(name, func(t *testing.T) {
			p, err := Compile(mk())
			if err != nil {
				t.Fatal(err)
			}
			want, err := mustCompile(t, mk()).Count()
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Count()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Count = %d, one-shot %d", got, want)
			}
			empty, err := p.IsEmpty()
			if err != nil {
				t.Fatal(err)
			}
			if empty != (want == 0) {
				t.Fatalf("IsEmpty = %v with %d results", empty, want)
			}
		})
	}
}

// TestCountOverflowStar: on an 8-atom star whose atoms each hold 300
// rows on the centre value, the count 300^8 does not fit an int64.
// Compile still succeeds; Count and Sample refuse with an error naming
// the overflow instead of a wrapped number, IsEmpty answers false, and
// PlanStats keeps Solutions unknown. Seven atoms fit and count exactly.
func TestCountOverflowStar(t *testing.T) {
	star := func(atoms int) *Query {
		tuples, weights := make([]Tuple, 300), make([]float64, 300)
		for j := range tuples {
			tuples[j], weights[j] = Tuple{0, int64(j)}, float64(j)
		}
		q := NewQuery()
		for i := 0; i < atoms; i++ {
			q.Rel(fmt.Sprintf("R%d", i), []string{"X", fmt.Sprintf("Y%d", i)}, tuples, weights)
		}
		return q
	}
	p, err := Compile(star(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second Count reads the epoch's cached verdict
		if n, err := p.Count(); err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("Count = %d, %v; want an overflow error", n, err)
		}
	}
	if empty, err := p.IsEmpty(); empty || err != nil {
		t.Fatalf("IsEmpty = %v, %v; want false, nil", empty, err)
	}
	if _, err := p.Sample(1); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("Sample err = %v, want the overflow error", err)
	}
	if top, err := p.TopK(1); err != nil || len(top) != 1 {
		t.Fatalf("TopK(1) = %v, %v", top, err)
	}
	if n := p.PlanStats().Solutions; n != -1 {
		t.Fatalf("PlanStats.Solutions = %d, want -1", n)
	}
	p, err = Compile(star(7))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Count(); err != nil || n != 218_700_000_000_000_000 {
		t.Fatalf("7 atoms: Count = %d, %v; want 300^7", n, err)
	}

	// The same eight pendants on a one-row triangle: a cyclic handle that
	// counts off a ranking's plan. Its first PlanStats after a run, like
	// every later one, reports the overflow as -1.
	tri := star(8).
		Rel("R", []string{"X", "Y"}, []Tuple{{0, 1}}, nil).
		Rel("S", []string{"Y", "Z"}, []Tuple{{1, 2}}, nil).
		Rel("T", []string{"Z", "X"}, []Tuple{{2, 0}}, nil)
	p, err = Compile(tri)
	if err != nil {
		t.Fatal(err)
	}
	if kind := p.PlanStats().Kind; kind != "ghd" {
		t.Fatalf("kind %s, want ghd", kind)
	}
	if top, err := p.TopK(1); err != nil || len(top) != 1 {
		t.Fatalf("triangle: TopK(1) = %v, %v", top, err)
	}
	for i := 0; i < 2; i++ {
		if n := p.PlanStats().Solutions; n != -1 {
			t.Fatalf("triangle: PlanStats #%d Solutions = %d, want -1", i+1, n)
		}
	}
	if n, err := p.Count(); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("triangle: Count = %d, %v; want an overflow error", n, err)
	}
}

// TestCompileCountsNothing: Compile builds no count arrays on an atom
// tree. The epoch's first Count allocates one per join-tree node, so it
// costs at least that many allocations more than Compile alone; later
// Counts read the memo and allocate fewer than that.
func TestCompileCountsNothing(t *testing.T) {
	const atoms = 8
	tuples := make([]Tuple, 50)
	for j := range tuples {
		tuples[j] = Tuple{0, int64(j)}
	}
	q := NewQuery()
	for i := 0; i < atoms; i++ {
		q.Rel(fmt.Sprintf("R%d", i), []string{"X", fmt.Sprintf("Y%d", i)}, tuples, nil)
	}
	compile := func() *Prepared { // 400 tuples: below prepareParallelThreshold
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	alone := testing.AllocsPerRun(10, func() { compile() })
	first := testing.AllocsPerRun(10, func() {
		if _, err := compile().Count(); err != nil {
			t.Fatal(err)
		}
	})
	if first-alone < atoms {
		t.Errorf("the first Count allocated %.0f times beyond Compile's %.0f, want at least %d: Compile counted already", first-alone, alone, atoms)
	}
	p := compile()
	p.Count()
	if again := testing.AllocsPerRun(10, func() { p.Count() }); again >= atoms {
		t.Errorf("a second Count allocated %.0f times, want fewer than %d: the counts were rebuilt", again, atoms)
	}
}

// TestCountIgnoresDomain: Count checks no weight against a ranking's
// domain, cyclic handles included — +Inf in one atom beside −Inf in
// another, which SumCost refuses, counts as a path and as a triangle
// with no plan built yet.
func TestCountIgnoresDomain(t *testing.T) {
	inf := math.Inf(1)
	path := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, []float64{inf}).
		Rel("S", []string{"B", "C"}, []Tuple{{2, 3}}, []float64{-inf})
	tri := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, []float64{inf}).
		Rel("S", []string{"B", "C"}, []Tuple{{2, 3}}, []float64{-inf}).
		Rel("T", []string{"C", "A"}, []Tuple{{3, 1}}, nil)
	for name, q := range map[string]*Query{"path": path, "triangle": tri} {
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := p.Count(); err != nil || n != 1 {
			t.Errorf("%s: Count = %d, %v; want 1, nil", name, n, err)
		}
		if _, err := p.TopK(1); err == nil {
			t.Errorf("%s: a SumCost run over +Inf beside -Inf succeeded", name)
		}
	}
}

// TestCompileErrors checks builder and shape errors surface at compile
// time.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile(NewQuery()); err == nil {
		t.Error("empty query should fail to compile")
	}
	bad := NewQuery().Rel("R", []string{"A", "B"}, []Tuple{{1}}, nil)
	if _, err := Compile(bad); err == nil {
		t.Error("arity mismatch should fail to compile")
	}
	e := []Tuple{{1, 2}}
	shape := NewQuery().
		Rel("E1", []string{"A", "B"}, e, nil).
		Rel("E2", []string{"B", "C"}, e, nil).
		Rel("E3", []string{"C", "A"}, e, nil).
		Rel("E4", []string{"B", "D"}, e, nil).
		Rel("E5", []string{"D", "C"}, e, nil)
	if _, err := Compile(shape); err != nil {
		t.Errorf("fused-triangle shape should compile via the GHD planner: %v", err)
	}
	if _, err := Compile(NewQuery().
		Rel("R", []string{"A", "B"}, e, nil).
		Rel("R", []string{"B", "C"}, e, nil)); err == nil {
		t.Error("duplicate relation name should fail to compile")
	}
	if _, err := Compile(NewQuery().
		Rel("R", []string{"A", "A"}, []Tuple{{1, 1}}, nil)); err == nil {
		t.Error("repeated atom variable should fail to compile")
	}
	p, err := Compile(prepCases()["acyclic"]())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(WithVariant(Variant("Nope"))); err == nil {
		t.Error("unknown variant should fail at Run")
	}
}

// TestPlanStatsReadsOneEpoch: PlanStats read beside a run of ApplyDelta
// calls describes one epoch on every read — its delta totals are those
// of the deltas that produced it, each of which appends one row.
func TestPlanStatsReadsOneEpoch(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, nil).
		Rel("S", []string{"B", "C"}, []Tuple{{2, 3}}, nil)
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	const deltas = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < deltas; i++ {
			if err := p.ApplyDelta([]Delta{{Rel: "R", Append: []Tuple{{int64(10 + i), 2}}}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		s := p.PlanStats()
		if s.Epoch != 1+s.DeltasApplied || s.DeltaAppendedRows != s.DeltasApplied {
			t.Errorf("PlanStats mixes epochs: epoch %d, %d deltas applied, %d rows appended", s.Epoch, s.DeltasApplied, s.DeltaAppendedRows)
			break
		}
		if s.Epoch == 1+deltas {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := p.PlanStats(); s.DeltasApplied != deltas || s.DeltaAppendedRows != deltas {
		t.Errorf("after %d deltas: %d applied, %d rows appended", deltas, s.DeltasApplied, s.DeltaAppendedRows)
	}
}

// TestIsEmptyCountsNothing: on an atom tree IsEmpty reads the reduced
// root and builds no count arrays, so Compile plus IsEmpty allocates at
// most two objects more than Compile alone (the first Count allocates
// one array per join-tree node; TestCompileCountsNothing).
func TestIsEmptyCountsNothing(t *testing.T) {
	const atoms = 8
	tuples := make([]Tuple, 50)
	for j := range tuples {
		tuples[j] = Tuple{0, int64(j)}
	}
	q := NewQuery()
	for i := 0; i < atoms; i++ {
		q.Rel(fmt.Sprintf("R%d", i), []string{"X", fmt.Sprintf("Y%d", i)}, tuples, nil)
	}
	compile := func() *Prepared { // 400 tuples: below prepareParallelThreshold
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	alone := testing.AllocsPerRun(10, func() { compile() })
	withEmpty := testing.AllocsPerRun(10, func() {
		if empty, err := compile().IsEmpty(); err != nil || empty {
			t.Fatalf("IsEmpty = %v, %v; want false, nil", empty, err)
		}
	})
	if raceEnabled {
		t.Skip("the race detector allocates inside the measured window")
	}
	if withEmpty-alone > 2 {
		t.Errorf("IsEmpty allocated %.0f times beyond Compile's %.0f, want at most 2: it counted", withEmpty-alone, alone)
	}
}

// TestIsEmptyPerShape: IsEmpty agrees with Count on an acyclic query, a
// triangle (one bag) and a 4-cycle, empty and not. The non-empty
// 4-cycle's only answer has a heavy B, so the first of its three
// heavy/light trees is empty and a later one decides.
func TestIsEmptyPerShape(t *testing.T) {
	e := func(rows ...Tuple) []Tuple { return rows }
	for _, c := range []struct {
		name  string
		attrs [][]string
		rels  [][]Tuple
		empty bool
	}{
		{"path", [][]string{{"A", "B"}, {"B", "C"}}, [][]Tuple{e(Tuple{1, 2}), e(Tuple{2, 3})}, false},
		{"path empty", [][]string{{"A", "B"}, {"B", "C"}}, [][]Tuple{e(Tuple{1, 2}), e(Tuple{5, 3})}, true},
		{"triangle", [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}, [][]Tuple{e(Tuple{1, 2}), e(Tuple{2, 3}), e(Tuple{3, 1})}, false},
		{"triangle empty", [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}, [][]Tuple{e(Tuple{1, 2}), e(Tuple{2, 3}), e(Tuple{3, 9})}, true},
		{"4-cycle", [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "A"}},
			[][]Tuple{e(Tuple{1, 2}), e(Tuple{2, 3}, Tuple{2, 5}), e(Tuple{3, 4}), e(Tuple{4, 1})}, false},
		{"4-cycle empty", [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "A"}},
			[][]Tuple{e(Tuple{1, 2}), e(Tuple{2, 3}, Tuple{2, 5}), e(Tuple{3, 4}), e(Tuple{4, 9})}, true},
	} {
		q := NewQuery()
		for i, rows := range c.rels {
			q.Rel(fmt.Sprintf("R%d", i+1), c.attrs[i], rows, nil)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if empty, err := p.IsEmpty(); err != nil || empty != c.empty {
			t.Errorf("%s: IsEmpty = %v, %v; want %v", c.name, empty, err, c.empty)
		}
		if n, err := p.Count(); err != nil || (n == 0) != c.empty {
			t.Errorf("%s: Count = %d, %v beside IsEmpty %v", c.name, n, err, c.empty)
		}
		if c.name == "4-cycle" {
			bags := p.PlanStats().Rankings[0].BagSizes
			// A tree is empty iff one of its bags is.
			if len(bags) != 3 || slices.Min(bags[0]) != 0 || slices.Min(bags[1]) == 0 && slices.Min(bags[2]) == 0 {
				t.Errorf("4-cycle bag sizes %v, want three trees, the first empty and a later one not", bags)
			}
		}
	}
}
