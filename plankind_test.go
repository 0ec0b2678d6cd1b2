package repro

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Every query compiles to one decomp.Shape — an acyclic query to the
// tree whose bags are its atoms — so counting, the output schema and
// the Run path must not depend on which shape a query got.

// countCases are queries of every plan kind: workload.RandomCQ seeds
// (join trees, pure cycles, chorded cycles), the four-cycle's
// three-tree heavy/light union, a long cycle, and a one-bag GHD,
// each compiled fresh so Count runs before any ranking is built.
func countCases(t *testing.T) map[string]*Prepared {
	t.Helper()
	out := map[string]*Prepared{}
	for seed := 0; seed < 12; seed++ {
		inst := workload.RandomCQ(5, 20, 6, 0, workload.UniformWeights(), uint64(seed))
		p, err := Compile(instanceQuery(inst))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("seed=%d/%s", seed, p.PlanStats().Kind)] = p
	}
	for _, name := range []string{"fourcycle", "longcycle"} {
		p, err := Compile(prepCases()[name]())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = p
	}
	inst, cm, _ := oneBagGHD(t)
	p, err := Compile(instanceQuery(inst), withCostModel(cm))
	if err != nil {
		t.Fatal(err)
	}
	out["one-bag ghd"] = p
	return out
}

// TestCountMatchesDrain: Count is Σ NumSolutions over the shape's trees
// for every kind, and equals a full drain; once it is known PlanStats
// reports it.
func TestCountMatchesDrain(t *testing.T) {
	kinds := map[string]bool{}
	for name, p := range countCases(t) {
		kinds[p.PlanStats().Kind] = true
		n, err := p.Count()
		if err != nil {
			t.Fatalf("%s: Count: %v", name, err)
		}
		all, err := p.TopK(0)
		if err != nil {
			t.Fatalf("%s: drain: %v", name, err)
		}
		if n != len(all) {
			t.Errorf("%s: Count = %d, a full drain yields %d", name, n, len(all))
		}
		if s := p.PlanStats().Solutions; s != n {
			t.Errorf("%s: PlanStats.Solutions = %d after Count = %d", name, s, n)
		}
		if empty, err := p.IsEmpty(); err != nil || empty != (n == 0) {
			t.Errorf("%s: IsEmpty = %v, %v with Count %d", name, empty, err, n)
		}
	}
	for _, k := range []string{"acyclic", "four-cycle", "cycle", "ghd"} {
		if !kinds[k] {
			t.Errorf("no %s case among %v", k, kinds)
		}
	}
}

// TestCountDoesNotEnumerate: a traced Count records no enumerate span,
// whatever the plan kind.
func TestCountDoesNotEnumerate(t *testing.T) {
	for name, p := range countCases(t) {
		ctx, tr := obs.NewTrace(context.Background(), obs.NewID(), time.Now())
		if _, err := p.Count(WithContext(ctx)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := p.IsEmpty(WithContext(ctx)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr.Finish(time.Now())
		if s := findSpan(tr.Snapshot().Spans, "enumerate"); s != nil {
			t.Errorf("%s: Count enumerated (span %+v)", name, s)
		}
	}
}

// TestCountConcurrent: concurrent Count, IsEmpty, PlanStats and Run
// calls on a fresh epoch all see one answer count once any of them has
// computed it.
func TestCountConcurrent(t *testing.T) {
	for _, name := range []string{"acyclic", "fourcycle"} {
		p, err := Compile(prepCases()[name]())
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, 8)
		var wg sync.WaitGroup
		for g := range counts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				switch g % 4 {
				case 0:
					_, err = p.Count()
				case 1:
					_, err = p.IsEmpty()
				case 2:
					_, err = p.TopK(1, WithRanking(MaxCost))
				}
				if err != nil {
					t.Error(err)
				}
				counts[g] = p.PlanStats().Solutions
			}()
		}
		wg.Wait()
		want, err := p.Count()
		if err != nil {
			t.Fatal(err)
		}
		for g, n := range counts {
			if n != want && (n != -1 || g%4 < 2) {
				t.Errorf("%s: goroutine %d saw Solutions %d, want %d", name, g, n, want)
			}
		}
	}
}

// TestCountIgnoresRanking: counting does not rank, so a weight outside
// the requested ranking's domain (−1 under ProductCost) neither fails
// Count/IsEmpty nor leaves a plan of that ranking in the cache; a Run
// under it still fails.
func TestCountIgnoresRanking(t *testing.T) {
	ring := []Tuple{{1, 2}, {2, 3}, {3, 1}}
	cases := map[string]struct {
		q    *Query
		want int
	}{
		"acyclic": {NewQuery().
			Rel("R", []string{"A", "B"}, []Tuple{{1, 10}, {2, 10}}, []float64{-1, 1}).
			Rel("S", []string{"B", "C"}, []Tuple{{10, 100}}, []float64{1}), 2},
		"triangle": {NewQuery().
			Rel("R", []string{"A", "B"}, ring, []float64{-1, 1, 1}).
			Rel("S", []string{"B", "C"}, ring, nil).
			Rel("T", []string{"C", "A"}, ring, nil), 3},
	}
	for name, tc := range cases {
		for _, first := range []string{"Count", "IsEmpty"} {
			p, err := Compile(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			count := func() {
				if n, err := p.Count(WithRanking(ProductCost)); err != nil || n != tc.want {
					t.Errorf("%s: Count under product = %d, %v; want %d, nil", name, n, err, tc.want)
				}
			}
			isEmpty := func() {
				if empty, err := p.IsEmpty(WithRanking(ProductCost)); err != nil || empty {
					t.Errorf("%s: IsEmpty under product = %v, %v; want false, nil", name, empty, err)
				}
			}
			if first == "Count" {
				count()
				isEmpty()
			} else {
				isEmpty()
				count()
			}
			for _, r := range p.PlanStats().Rankings {
				if r.Ranking == ProductCost.Name() {
					t.Errorf("%s: counting cached a product plan", name)
				}
			}
			if _, err := p.Run(WithRanking(ProductCost)); err == nil {
				t.Errorf("%s: a product run over a weight of -1 succeeded", name)
			}
		}
	}
}

// TestOutAttrsOneDerivation: the schema Query.OutAttrs reports without
// touching data is the one the compiled handle enumerates in.
func TestOutAttrsOneDerivation(t *testing.T) {
	acyclic := 0
	for seed := 0; seed < 24; seed++ {
		inst := workload.RandomCQ(6, 8, 5, 0, workload.UniformWeights(), uint64(seed))
		q := instanceQuery(inst)
		want, err := q.OutAttrs()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.OutAttrs(); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d (%s): Query.OutAttrs = %v, Prepared.OutAttrs = %v", seed, p.PlanStats().Kind, want, got)
		}
		if p.PlanStats().Kind == "acyclic" {
			acyclic++
		}
	}
	if acyclic == 0 {
		t.Error("no acyclic seed among the cases")
	}
}

// TestAcyclicRunAllocs pins what a warm acyclic Run allocates, with and
// without a drain: no schema projection, no per-Run slice of tree
// iterators, no per-Run table of candidate structures, no candidate
// structure once some Run has built it, and no ANYK-PART object per
// result (value queue entries, assignments in a chunked arena, every
// result emitted into one reused tuple).
func TestAcyclicRunAllocs(t *testing.T) {
	p, err := Compile(prepCases()["acyclic"]())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TopK(1); err != nil { // warm the plan
		t.Fatal(err)
	}
	// The plan holds its structures weakly: an open iterator keeps them
	// through any collection that falls inside the measurement.
	hold, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	run := func() {
		it, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		it.Close()
	}
	drain := func() {
		it, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		it.Close()
	}
	// On this fixture: 8 objects to start a Run, 42 to start one and
	// drain its 3 434 results — the row buffer and the queue's and the
	// arena's growth; every candidate structure is the plan's.
	if got := testing.AllocsPerRun(20, run); got != 8 {
		t.Errorf("warm Run allocates %v objects, want 8", got)
	}
	if got := testing.AllocsPerRun(20, drain); got != 42 {
		t.Errorf("warm Run + drain allocates %v objects, want 42", got)
	}
}
