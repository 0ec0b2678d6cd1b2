package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// bowtieQuery builds the bowtie — two triangles sharing A — the
// canonical multi-bag GHD shape the parallel prepare path fans out on.
func bowtieQuery() *Query {
	g := workload.RandomGraph(10, 55, workload.UniformWeights(), 41)
	q := NewQuery()
	for i, vs := range [][]string{
		{"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "D"}, {"D", "E"}, {"E", "A"},
	} {
		q.Rel("E"+string(rune('1'+i)), vs, g.Edges.Tuples, g.Edges.Weights)
	}
	return q
}

// assertSameResults compares two full result sequences exactly — same
// tuples, same weights, same order.
func assertSameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Weight != want[i].Weight || !reflect.DeepEqual(got[i].Tuple, want[i].Tuple) {
			t.Fatalf("%s: rank %d = %v @ %v, want %v @ %v",
				label, i, got[i].Tuple, got[i].Weight, want[i].Tuple, want[i].Weight)
		}
	}
}

// TestPrepareWorkersBitIdentical checks the facade contract: a handle
// prepared on several workers yields exactly the same ranked output as
// a sequential one, for every shape the planner routes — including
// acyclic queries, whose T-DP instantiation fans out level by level.
func TestPrepareWorkersBitIdentical(t *testing.T) {
	shapes := map[string]func() *Query{
		"bowtie": bowtieQuery,
	}
	for name, mk := range prepCases() {
		shapes[name] = mk
	}
	// (The wide acyclic star is covered separately in
	// TestAcyclicParallelPrepareBitIdentical — its full result set is
	// too large to drain here.)
	for name, mk := range shapes {
		assertSameResults(t, name, topKAt(t, 4, mk, 0), topKAt(t, 1, mk, 0))
	}
}

// TestConcurrentCancelDoesNotFailHealthyRun: a Run with a live context
// racing a Run whose context is canceled must never inherit the other
// run's cancellation — if it lands on the canceled build's cache entry
// it retries with its own context.
func TestConcurrentCancelDoesNotFailHealthyRun(t *testing.T) {
	atWorkers(t, 2, func() {
		for round := 0; round < 8; round++ {
			p, err := Compile(bowtieQuery())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := p.TopK(1, WithContext(ctx))
				done <- err
			}()
			cancel()
			if _, err := p.TopK(1); err != nil {
				t.Fatalf("round %d: healthy run failed: %v", round, err)
			}
			if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: canceled run: %v", round, err)
			}
		}
	})
}

// TestCanceledPrepareNotCached: cancelling the Run that triggers bag
// materialisation must fail that Run with ctx.Err() — and must not
// poison the per-ranking cache, so a later Run succeeds.
func TestCanceledPrepareNotCached(t *testing.T) {
	atWorkers(t, 4, func() {
		p, err := Compile(bowtieQuery())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := p.Run(WithContext(ctx)); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled first run: got %v, want context.Canceled", err)
		}
		res, err := p.TopK(5)
		if err != nil {
			t.Fatalf("run after canceled prepare: %v", err)
		}
		if len(res) == 0 {
			t.Fatal("run after canceled prepare returned no results")
		}
	})
}

// skewAtoms builds triangle atoms over a three-layer rotor graph:
// hub 0 → every left vertex, complete bipartite left → right, every
// right vertex → 0. Each triangle is one rotation of (0, left, right),
// so the join has 3·m·k answers and the single value A=0 owns a full
// third of all work — far past any per-task budget — while the m+k
// light values share the rest.
func skewAtoms(m, k int) []wcoj.Atom {
	mk := func(name string) *relation.Relation {
		r := relation.New(name, "src", "dst")
		add := func(a, b int64) { r.AddWeighted(float64(a)+float64(b)/1000, a, b) }
		for l := int64(1); l <= int64(m); l++ {
			add(0, l)
			for rt := int64(m + 1); rt <= int64(m+k); rt++ {
				add(l, rt)
			}
		}
		for rt := int64(m + 1); rt <= int64(m+k); rt++ {
			add(rt, 0)
		}
		return r
	}
	return []wcoj.Atom{
		{Rel: mk("R"), Vars: []string{"A", "B"}},
		{Rel: mk("S"), Vars: []string{"B", "C"}},
		{Rel: mk("T"), Vars: []string{"C", "A"}},
	}
}

// TestSkewTaskShares is the machine-independent skew guardrail:
// wall-clock on a multi-core box is bounded below by the largest single
// task's share of the join work, and on the rotor fixture the hub value
// A=0 owns a third of it. Equal-count first-variable chunking cannot
// split a single value, so its critical share stays pinned near 1/3
// whatever the worker count; the skew-aware planner must land well
// under that. (The benchmark's wcoj.max_task_share.hub_triangle row
// reads the same quantity on its own fixture.)
func TestSkewTaskShares(t *testing.T) {
	atoms := skewAtoms(300, 60)
	chunked, skewAware, err := wcoj.TaskShares(atoms, []string{"A", "B", "C"}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 32 chunks over ~361 first-variable values: perfect balance would
	// be ~0.03 per chunk, but the chunk holding the hub owns over a
	// quarter of all work (a third of the emits, diluted by the light
	// values' seek overhead).
	if chunked < 0.25 {
		t.Errorf("chunked max task share = %.3f, want >= 0.25 (hub pinned whole)", chunked)
	}
	if skewAware >= chunked/2 {
		t.Errorf("skew-aware max task share = %.3f, want < half of chunked %.3f", skewAware, chunked)
	}
	// Both shares are exact work counts over one deterministic fixture,
	// so they are pinned bit for bit: how TaskShares measures them may
	// change, what it measures may not.
	if chunked != 0.28985507246376813 || skewAware != 0.042398546335554212 {
		t.Errorf("shares (chunked, skew-aware) = (%.17g, %.17g), want (0.28985507246376813, 0.042398546335554212)", chunked, skewAware)
	}
}
