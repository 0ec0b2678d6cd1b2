package repro

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/workload"
)

// A warm plan's Runs share its candidate structures: each T-DP builds
// one per (variant, group) and a one-bag plan sorts its bag once, and
// every Run reads and extends the same ones. The tests below check that
// sharing changes no sequence: not under concurrent Runs, not when Runs
// interleave, and not when a collection reclaims the structures between
// Runs.

// tieWeight draws weights from {1, 2, 3}, so most answers tie with
// others and a shared structure that reordered equal keys would show.
func tieWeight(r *workload.Rand) float64 { return float64(1 + r.Intn(3)) }

// warmCase is a query and the variants its Runs are checked under.
type warmCase struct {
	name     string
	kind     string
	query    func() *Query
	variants []Variant
}

func warmCases() []warmCase {
	path := workload.Path(3, 40, 6, tieWeight, 3)
	g := workload.RandomGraph(14, 90, tieWeight, 4)
	return []warmCase{
		{"path", "acyclic", func() *Query { return instanceQuery(path) }, []Variant{Eager, Lazy, Quick, All, Take2}},
		{"one-bag triangle", "triangle", func() *Query {
			q := NewQuery()
			for i, vs := range [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}} {
				q.Rel("E"+string(rune('1'+i)), vs, g.Edges.Tuples, g.Edges.Weights)
			}
			return q
		}, []Variant{Lazy}},
	}
}

// freshTopK is the sequence a Run on a plan of its own gives: one no
// other Run has touched.
func freshTopK(t *testing.T, c warmCase, v Variant) []Result {
	t.Helper()
	want, err := compileKind(t, c.query(), c.kind).TopK(0, WithVariant(v))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 100 {
		t.Fatalf("%s: %d answers, too few to show anything", c.name, len(want))
	}
	return want
}

// sameSequence reports whether a and b are the same answers in the same
// order, ties included.
func sameSequence(a, b []Result) bool {
	return slices.EqualFunc(a, b, func(x, y Result) bool {
		return x.Weight == y.Weight && slices.Equal(x.Tuple, y.Tuple)
	})
}

// drainFrom collects the rest of it, copying each tuple.
func drainFrom(it Iterator, out []Result) []Result {
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, Result{Tuple: slices.Clone(r.Tuple), Weight: r.Weight})
	}
}

// TestConcurrentRunsOfOneWarmPlan drains one warm plan from 8 goroutines
// at once, for every ANYK-PART variant and for the one-bag scan: they
// read and extend the same structures, and each drain must equal a
// sequential one on a plan of its own.
func TestConcurrentRunsOfOneWarmPlan(t *testing.T) {
	for _, c := range warmCases() {
		for _, v := range c.variants {
			t.Run(c.name+"/"+string(v), func(t *testing.T) {
				want := freshTopK(t, c, v)
				p := compileKind(t, c.query(), c.kind)
				if _, err := p.TopK(10, WithVariant(v)); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got, err := p.TopK(0, WithVariant(v))
						if err != nil {
							t.Error(err)
							return
						}
						if !sameSequence(got, want) {
							t.Errorf("goroutine %d: a concurrent drain differs from a sequential one", g)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// TestInterleavedRuns runs A to k = 5, then B to exhaustion, then
// resumes A: B reads what A sorted and sorts further, A then reads what
// B sorted, and each must equal a fresh Run. A collection between two
// Runs, and one inside a Run, may reclaim the plan's structures or not,
// and changes neither sequence.
func TestInterleavedRuns(t *testing.T) {
	for _, c := range warmCases() {
		for _, v := range c.variants {
			t.Run(c.name+"/"+string(v), func(t *testing.T) {
				want := freshTopK(t, c, v)
				p := compileKind(t, c.query(), c.kind)
				a, err := p.Run(WithVariant(v))
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				var gotA []Result
				for len(gotA) < 5 {
					r, ok := a.Next()
					if !ok {
						t.Fatal("A ended before 5 answers")
					}
					gotA = append(gotA, Result{Tuple: slices.Clone(r.Tuple), Weight: r.Weight})
				}
				b, err := p.Run(WithVariant(v))
				if err != nil {
					t.Fatal(err)
				}
				if gotB := drainFrom(b, nil); !sameSequence(gotB, want) {
					t.Error("B, run while A was open, differs from a fresh Run")
				}
				runtime.GC()
				if gotA = drainFrom(a, gotA); !sameSequence(gotA, want) {
					t.Error("A, resumed after B, differs from a fresh Run")
				}
				runtime.GC()
				got, err := p.TopK(0, WithVariant(v))
				if err != nil {
					t.Fatal(err)
				}
				if !sameSequence(got, want) {
					t.Error("a Run after a collection differs from a fresh Run")
				}
			})
		}
	}
}

// TestWarmRunBytesFlat is a doubling sweep: the bytes a second top-10
// Run allocates on a warm plan, a Lazy path plan and a one-bag plan,
// stay flat while n doubles four times. The Run builds no structure the
// first one built, and keeps no table sized by the plan's groups or its
// bag; before the structures were shared, both grew with n.
func TestWarmRunBytesFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates inside the measured window")
	}
	plans := []struct {
		name  string
		query func(n int) *Query
	}{
		{"lazy path", func(n int) *Query {
			return instanceQuery(workload.Path(3, n, n/4, workload.UniformWeights(), 7))
		}},
		{"one-bag triangle", func(n int) *Query {
			g := workload.RandomGraph(200, n, workload.UniformWeights(), 8)
			q := NewQuery()
			for i, vs := range [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}} {
				q.Rel("E"+string(rune('1'+i)), vs, g.Edges.Tuples, g.Edges.Weights)
			}
			return q
		}},
	}
	for _, pl := range plans {
		var per []float64
		for n := 1000; n <= 16000; n *= 2 {
			p, err := Compile(pl.query(n))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.TopK(10); err != nil {
				t.Fatal(err)
			}
			// The plan holds its structures weakly: an open iterator keeps
			// them through any collection inside the measurement.
			hold, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := p.TopK(10); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			hold.Close()
			b := float64(after.TotalAlloc-before.TotalAlloc) / runs
			per = append(per, b)
			t.Logf("%s: n = %d (%s), %.0f B a warm top-10 Run", pl.name, n, p.PlanStats().Kind, b)
		}
		if last := per[len(per)-1]; last > 1.25*per[0] {
			t.Errorf("%s: a warm top-10 Run allocates %.0f B at n = 1000 and %.0f B at n = 16000, want flat", pl.name, per[0], last)
		}
	}
}

// BenchmarkWarmRun times a warm top-10 Run — Run, ten Next calls and
// Close — on a Lazy path plan and on a one-bag plan, reporting ns/op
// and B/op. Nothing holds the plan's structures between Runs, so a
// collection that reclaims them is paid for by the next Run, as it is
// in a server.
//
//	go test -run '^$' -bench WarmRun -benchmem .
func BenchmarkWarmRun(b *testing.B) {
	g := workload.RandomGraph(200, 8000, workload.UniformWeights(), 8)
	triangle := NewQuery()
	for i, vs := range [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}} {
		triangle.Rel("E"+string(rune('1'+i)), vs, g.Edges.Tuples, g.Edges.Weights)
	}
	for _, c := range []struct {
		name string
		q    *Query
	}{
		{"LazyPath", instanceQuery(workload.Path(3, 8000, 2000, workload.UniformWeights(), 7))},
		{"OneBag", triangle},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := Compile(c.q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.TopK(10); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				it, err := p.Run()
				if err != nil {
					b.Fatal(err)
				}
				for range 10 {
					it.Next()
				}
				it.Close()
			}
		})
	}
}
