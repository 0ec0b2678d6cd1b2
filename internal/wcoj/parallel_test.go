package wcoj

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ranking"
	"repro/internal/relation"
)

// randomEdges returns a deterministic pseudo-random edge list.
func randomEdges(n, domain int, seed uint64) [][2]relation.Value {
	state := seed
	next := func() relation.Value {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return relation.Value(state % uint64(domain))
	}
	edges := make([][2]relation.Value, n)
	for i := range edges {
		edges[i] = [2]relation.Value{next(), next()}
	}
	return edges
}

// parallelFixtures covers the shapes the decomposition layer feeds into
// Materialize: the triangle, a path (acyclic bag), a higher-arity mixed
// join, and an empty intersection.
func parallelFixtures() map[string]struct {
	atoms []Atom
	order []string
} {
	tri := triangleAtoms(randomEdges(300, 25, 7))
	path := []Atom{
		{Rel: edgeRel("R", randomEdges(200, 30, 1)), Vars: []string{"A", "B"}},
		{Rel: edgeRel("S", randomEdges(200, 30, 2)), Vars: []string{"B", "C"}},
		{Rel: edgeRel("T", randomEdges(200, 30, 3)), Vars: []string{"C", "D"}},
	}
	wide := relation.New("W", "A", "B", "C")
	for i, e := range randomEdges(150, 12, 9) {
		wide.AddWeighted(float64(i), e[0], e[1], (e[0]+e[1])%12)
	}
	mixed := []Atom{
		{Rel: wide, Vars: []string{"A", "B", "C"}},
		{Rel: edgeRel("S", randomEdges(150, 12, 11)), Vars: []string{"B", "C"}},
	}
	empty := []Atom{
		{Rel: edgeRel("R", [][2]relation.Value{{1, 2}}), Vars: []string{"A", "B"}},
		{Rel: edgeRel("S", [][2]relation.Value{{3, 4}}), Vars: []string{"A", "B"}},
	}
	return map[string]struct {
		atoms []Atom
		order []string
	}{
		"triangle": {tri, []string{"A", "B", "C"}},
		"path":     {path, []string{"B", "A", "C", "D"}},
		"mixed":    {mixed, []string{"A", "B", "C"}},
		"empty":    {empty, []string{"A", "B"}},
	}
}

// TestMaterializeParallelBitIdentical is the core determinism contract:
// for every fixture and worker count, the parallel materialisation must
// produce the same relation — same tuples in the same order, same
// weights — and the same Instr totals as the sequential one.
func TestMaterializeParallelBitIdentical(t *testing.T) {
	for name, fx := range parallelFixtures() {
		want, wantInstr, err := Materialize(fx.atoms, fx.order, sum)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, workers := range []int{1, 2, 3, 8, 16} {
			got, gotInstr, err := MaterializeParallelHinted(context.Background(), fx.atoms, fx.order, sum, workers, nil)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			assertSameRows(t, fmt.Sprintf("%s/workers=%d", name, workers), got, want)
			if *gotInstr != *wantInstr {
				t.Errorf("%s/workers=%d: Instr = %+v, want %+v", name, workers, *gotInstr, *wantInstr)
			}
		}
	}
}

// assertSameRows fails unless got and want hold the same rows in the
// same order, compared through Row and Weights.
func assertSameRows(t *testing.T, name string, got, want *relation.Rows) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := range want.Len() {
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("%s: weight[%d] = %v, want %v", name, i, got.Weights[i], want.Weights[i])
		}
		if g, w := got.Row(i), want.Row(i); !slices.Equal(g, w) {
			t.Fatalf("%s: row %d = %v, want %v", name, i, g, w)
		}
	}
}

// TestMaterializeParallelAggregates checks parity holds under every
// ranking aggregate, not just SumCost (the aggregate shapes the leaf
// weights the workers emit).
func TestMaterializeParallelAggregates(t *testing.T) {
	atoms := triangleAtoms(randomEdges(200, 20, 13))
	order := []string{"A", "B", "C"}
	for _, agg := range ranking.All {
		want, wantInstr, err := Materialize(atoms, order, agg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotInstr, err := MaterializeParallelHinted(context.Background(), atoms, order, agg, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, agg.Name(), got, want)
		if *gotInstr != *wantInstr {
			t.Errorf("%s: Instr = %+v, want %+v", agg.Name(), *gotInstr, *wantInstr)
		}
	}
}

func TestMaterializeParallelPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	atoms := triangleAtoms(randomEdges(100, 15, 3))
	_, _, err := MaterializeParallelHinted(ctx, atoms, []string{"A", "B", "C"}, sum, 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// countdownCtx is a context that reports cancellation after its Err
// method has been consulted a fixed number of times — a deterministic
// way to cancel in the middle of a partition sweep (cancellation is
// only ever checked between partitions).
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestMaterializeParallelMidCancel cancels after a few checks; the call
// must surface ctx.Err() rather than a partial relation. Seven checks
// precede the partition sweep (one on entry, then one per atom sort
// and one per sort worker on its way out), so a countdown of 3 lands
// among the atom sorts and one of 10 among the partitions.
func TestMaterializeParallelMidCancel(t *testing.T) {
	atoms := triangleAtoms(randomEdges(400, 30, 21))
	for _, checks := range []int64{3, 10} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.remaining.Store(checks)
		out, _, err := MaterializeParallelHinted(ctx, atoms, []string{"A", "B", "C"}, sum, 4, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after %d checks: got %v, want context.Canceled", checks, err)
		}
		if out != nil {
			t.Fatalf("after %d checks: canceled materialisation must not return a partial relation", checks)
		}
	}
}

// TestMaterializeParallelGOMAXPROCS1 pins GOMAXPROCS to 1: the worker
// pool degrades to interleaved goroutines on one P and the output must
// still be bit-identical.
func TestMaterializeParallelGOMAXPROCS1(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	atoms := triangleAtoms(randomEdges(250, 22, 5))
	order := []string{"A", "B", "C"}
	want, wantInstr, err := Materialize(atoms, order, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, gotInstr, err := MaterializeParallelHinted(context.Background(), atoms, order, sum, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "gomaxprocs1", got, want)
	if *gotInstr != *wantInstr {
		t.Errorf("Instr = %+v, want %+v", *gotInstr, *wantInstr)
	}
}

// TestNewJoinParallelBuildError: with two malformed atoms, building the
// tries on several workers reports the error the sequential loop stops
// at — the lower-indexed atom's — however the goroutines interleave, and
// so do MaterializeParallelHinted and Materialize.
func TestNewJoinParallelBuildError(t *testing.T) {
	edges := randomEdges(300, 25, 13)
	order := []string{"A", "B", "C", "D"}
	atoms := []Atom{
		{Rel: edgeRel("R", edges), Vars: []string{"A", "B"}},
		{Rel: edgeRel("S", edges), Vars: []string{"B", "C"}},
		{Rel: edgeRel("T", edges), Vars: []string{"C", "C"}}, // repeats a variable
		{Rel: edgeRel("U", edges), Vars: []string{"C", "D"}},
		{Rel: edgeRel("V", edges), Vars: []string{"D", "E"}}, // E is not in the order
		{Rel: edgeRel("W", edges), Vars: []string{"D", "A"}},
	}
	_, want := newJoin(context.Background(), 1, atoms, order, sum, nil, false)
	if want == nil || !strings.Contains(want.Error(), "atom T") {
		t.Fatalf("sequential build: got %v, want atom T's error", want)
	}
	for _, workers := range []int{2, 3, 8} {
		for range 10 {
			if _, err := newJoin(context.Background(), workers, atoms, order, sum, nil, false); err == nil || err.Error() != want.Error() {
				t.Fatalf("workers=%d: got %v, want %v", workers, err, want)
			}
		}
	}
	_, _, seqErr := Materialize(atoms, order, sum)
	_, _, parErr := MaterializeParallelHinted(context.Background(), atoms, order, sum, 4, nil)
	if seqErr == nil || parErr == nil || seqErr.Error() != want.Error() || parErr.Error() != want.Error() {
		t.Fatalf("Materialize: %v, MaterializeParallelHinted: %v, want %v", seqErr, parErr, want)
	}
}
