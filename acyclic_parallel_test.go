package repro

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/workload"
)

// starQuery builds a 6-relation acyclic star — the widest join-tree
// level the facade-level parallel Instantiate tests fan out on.
func starQuery() *Query {
	inst := workload.Star(6, 300, 15, workload.UniformWeights(), 23)
	q := NewQuery()
	for i, r := range inst.Rels {
		q.Rel(r.Name, inst.H.Edges[i].Vars, r.Tuples, r.Weights)
	}
	return q
}

// withThreshold runs fn with the default-parallelism size threshold
// pinned, restoring the measured default afterwards.
func withThreshold(t *testing.T, n int, fn func()) {
	t.Helper()
	old := prepareParallelThreshold
	prepareParallelThreshold = n
	defer func() { prepareParallelThreshold = old }()
	fn()
}

// atWorkers runs fn with every prepare build at exactly n workers: n == 1
// pins the size threshold above any input, and n >= 2 pins it at 0 with
// GOMAXPROCS at n. A build reads both when it starts, so the Compile and
// the first Runs to compare must all happen inside fn.
func atWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	threshold := math.MaxInt
	if n > 1 {
		threshold = 0
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	withThreshold(t, threshold, fn)
}

// topKAt compiles mk() and collects its top k (k <= 0: every result),
// both at n workers.
func topKAt(t *testing.T, n int, mk func() *Query, k int) (out []Result) {
	t.Helper()
	atWorkers(t, n, func() {
		p, err := Compile(mk())
		if err != nil {
			t.Fatal(err)
		}
		if out, err = p.TopK(k); err != nil {
			t.Fatal(err)
		}
	})
	return out
}

// TestAcyclicParallelPrepareBitIdentical checks the facade contract on
// the acyclic path for 1, 2 and 4 workers: identical tuples, weights,
// and enumeration order across several ranking functions (the star's
// full result set is combinatorially large, so the order check drains
// the top 400 and the totals are compared via the counting pass), plus
// a full drain on a small path query.
func TestAcyclicParallelPrepareBitIdentical(t *testing.T) {
	const k = 400
	for _, agg := range []ranking.Aggregate{SumCost, MaxCost, SumBenefit, ProductCost} {
		topK := func(workers int) (out []Result, count int) {
			atWorkers(t, workers, func() {
				p, err := Compile(starQuery())
				if err != nil {
					t.Fatal(err)
				}
				if out, err = p.TopK(k, WithRanking(agg)); err != nil {
					t.Fatal(err)
				}
				if count, err = p.Count(); err != nil {
					t.Fatal(err)
				}
			})
			return out, count
		}
		want, wantCount := topK(1)
		for _, workers := range []int{2, 4} {
			got, gotCount := topK(workers)
			assertSameResults(t, agg.Name(), got, want)
			if gotCount != wantCount {
				t.Fatalf("w=%d: Count %d != %d", workers, gotCount, wantCount)
			}
		}
	}

	// Small path instance: full drain, every rank compared.
	mk := prepCases()["acyclic"]
	want := topKAt(t, 1, mk, 0)
	for _, workers := range []int{2, 4} {
		assertSameResults(t, "path-full-drain", topKAt(t, workers, mk, 0), want)
	}
}

// TestDefaultParallelismThreshold checks the resolution rule: a build
// runs on GOMAXPROCS workers at or above the size threshold and on the
// sequential path below it, and both paths produce identical results.
func TestDefaultParallelismThreshold(t *testing.T) {
	if got := prepareWorkers(prepareParallelThreshold); got != parallel.Degree(0) {
		t.Fatalf("at the threshold: workers = %d, want GOMAXPROCS = %d", got, parallel.Degree(0))
	}
	if got := prepareWorkers(prepareParallelThreshold - 1); got != 1 {
		t.Fatalf("just below the threshold: workers = %d, want 1", got)
	}
	var want []Result
	withThreshold(t, 1, func() { // everything clears the threshold
		p, err := Compile(starQuery())
		if err != nil {
			t.Fatal(err)
		}
		if got := prepareWorkers(p.state.Load().estTuples); got != parallel.Degree(0) {
			t.Fatalf("above threshold: workers = %d, want GOMAXPROCS = %d", got, parallel.Degree(0))
		}
		if want, err = p.TopK(300); err != nil {
			t.Fatal(err)
		}
	})
	withThreshold(t, math.MaxInt, func() { // nothing clears it
		p, err := Compile(starQuery())
		if err != nil {
			t.Fatal(err)
		}
		if got := prepareWorkers(p.state.Load().estTuples); got != 1 {
			t.Fatalf("below threshold: workers = %d, want 1", got)
		}
		got, err := p.TopK(300)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "threshold-default", got, want)
	})
}

// cdCtx reports cancellation after Err has been consulted a fixed
// number of times — deterministic mid-Instantiate cancellation at the
// facade level.
type cdCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *cdCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAcyclicCanceledInstantiateNotCached: cancelling the first Run on
// an acyclic query — which triggers the per-aggregate Instantiate —
// must fail that Run with ctx.Err() and must not poison the
// per-aggregate cache: the next Run rebuilds and succeeds. Covers both
// a pre-canceled context and a countdown context that cancels
// mid-Instantiate, at sequential and parallel worker counts.
// TestAcyclicCanceledCompile: WithContext passed to Compile covers the
// acyclic plan build (full reduction + grouping) itself.
func TestAcyclicCanceledCompile(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compile(starQuery(), WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Compile: got %v, want context.Canceled", err)
	}
	atWorkers(t, 4, func() {
		mid := &cdCtx{Context: context.Background()}
		mid.remaining.Store(2)
		if _, err := Compile(starQuery(), WithContext(mid)); !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-build Compile cancel: got %v, want context.Canceled", err)
		}
	})
	if _, err := Compile(starQuery()); err != nil {
		t.Fatalf("healthy Compile after canceled ones: %v", err)
	}
}

func TestAcyclicCanceledInstantiateNotCached(t *testing.T) {
	for _, workers := range []int{1, 4} {
		atWorkers(t, workers, func() {
			p, err := Compile(starQuery())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.Run(WithContext(ctx)); !errors.Is(err, context.Canceled) {
				t.Fatalf("w=%d: pre-canceled first run: got %v, want context.Canceled", workers, err)
			}
			res, err := p.TopK(5)
			if err != nil {
				t.Fatalf("w=%d: run after canceled prepare: %v", workers, err)
			}
			if len(res) == 0 {
				t.Fatalf("w=%d: run after canceled prepare returned no results", workers)
			}

			// Mid-Instantiate: a fresh aggregate forces a new build; the
			// countdown lets a few node tasks through before cancelling.
			mid := &cdCtx{Context: context.Background()}
			mid.remaining.Store(2)
			if _, err := p.Run(WithRanking(MaxCost), WithContext(mid)); !errors.Is(err, context.Canceled) {
				t.Fatalf("w=%d: mid-Instantiate cancel: got %v, want context.Canceled", workers, err)
			}
			if _, err := p.TopK(5, WithRanking(MaxCost)); err != nil {
				t.Fatalf("w=%d: run after mid-Instantiate cancel: %v", workers, err)
			}
		})
	}
}

// TestAcyclicConcurrentRunsAcrossAggregates exercises one Prepared
// handle from many goroutines with different ranking functions — each
// first Run races to instantiate its own aggregate's T-DP — and checks
// every result stream against the sequential reference. A canceled
// countdown run races the healthy ones and must not fail them. Every
// build clears the size threshold, so it runs on GOMAXPROCS workers;
// the whole test repeats squeezed onto one P, where that is one worker.
func TestAcyclicConcurrentRunsAcrossAggregates(t *testing.T) {
	aggs := []ranking.Aggregate{SumCost, MaxCost, SumBenefit, ProductCost}
	want := make(map[string][]Result)
	atWorkers(t, 1, func() {
		seq, err := Compile(starQuery())
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range aggs {
			w, err := seq.TopK(8, WithRanking(agg))
			if err != nil {
				t.Fatal(err)
			}
			want[agg.Name()] = w
		}
	})
	run := func(t *testing.T) {
		p, err := Compile(starQuery())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 20)
		for g := 0; g < 16; g++ {
			agg := aggs[g%len(aggs)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := p.TopK(8, WithRanking(agg))
				if err != nil {
					errs <- err
					return
				}
				w := want[agg.Name()]
				if len(got) != len(w) {
					errs <- errors.New(agg.Name() + ": result count mismatch")
					return
				}
				for i := range got {
					if got[i].Weight != w[i].Weight {
						errs <- errors.New(agg.Name() + ": weight mismatch")
						return
					}
				}
			}()
		}
		// One canceled run racing the healthy ones: allowed to fail only
		// with context.Canceled, and must not fail anyone else.
		wg.Add(1)
		go func() {
			defer wg.Done()
			mid := &cdCtx{Context: context.Background()}
			mid.remaining.Store(3)
			if _, err := p.TopK(1, WithRanking(MinBenefit), WithContext(mid)); err != nil && !errors.Is(err, context.Canceled) {
				errs <- err
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	t.Run("gomaxprocs=default", func(t *testing.T) {
		withThreshold(t, 0, func() { run(t) })
	})
	t.Run("gomaxprocs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		withThreshold(t, 0, func() { run(t) })
	})
}
