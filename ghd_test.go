package repro

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/ranking"
	"repro/internal/workload"
)

// atomSpec declares one relation of a brute-force reference query.
type atomSpec struct {
	name string
	vars []string
}

// graphQuery binds the workload graph's edge relation to each atom.
func graphQuery(g *workload.Graph, atoms []atomSpec) *Query {
	q := NewQuery()
	for _, a := range atoms {
		q.Rel(a.name, a.vars, g.Edges.Tuples, g.Edges.Weights)
	}
	return q
}

// bruteWeights computes the reference result weights of the join by
// backtracking over variable bindings, sorted into agg's ranking order.
func bruteWeights(g *workload.Graph, atoms []atomSpec, agg ranking.Aggregate) []float64 {
	binding := map[string]Value{}
	var weights []float64
	var rec func(i int, w float64)
	rec = func(i int, w float64) {
		if i == len(atoms) {
			weights = append(weights, w)
			return
		}
		a := atoms[i]
	tuples:
		for ti, t := range g.Edges.Tuples {
			var bound []string
			for c, v := range a.vars {
				if bv, ok := binding[v]; ok {
					if bv != t[c] {
						for _, b := range bound {
							delete(binding, b)
						}
						continue tuples
					}
				} else {
					binding[v] = t[c]
					bound = append(bound, v)
				}
			}
			rec(i+1, agg.Combine(w, g.Edges.Weights[ti]))
			for _, b := range bound {
				delete(binding, b)
			}
		}
	}
	rec(0, agg.Identity())
	sort.Slice(weights, func(i, j int) bool { return agg.Less(weights[i], weights[j]) })
	return weights
}

var ghdFacadeShapes = map[string][]atomSpec{
	"K4": {
		{"R1", []string{"A", "B"}}, {"R2", []string{"A", "C"}}, {"R3", []string{"A", "D"}},
		{"R4", []string{"B", "C"}}, {"R5", []string{"B", "D"}}, {"R6", []string{"C", "D"}},
	},
	"bowtie": {
		{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}}, {"R3", []string{"C", "A"}},
		{"R4", []string{"A", "D"}}, {"R5", []string{"D", "E"}}, {"R6", []string{"E", "A"}},
	},
	"fused-triangles": {
		{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}}, {"R3", []string{"C", "A"}},
		{"R4", []string{"B", "D"}}, {"R5", []string{"D", "C"}},
	},
	"star-with-chord": {
		{"R1", []string{"A", "B"}}, {"R2", []string{"A", "C"}}, {"R3", []string{"A", "D"}},
		{"R4", []string{"B", "C"}},
	},
	"flipped-triangle": { // genuine cycle with one edge orientation flipped
		{"R1", []string{"A", "B"}}, {"R2", []string{"C", "B"}}, {"R3", []string{"C", "A"}},
	},
	"5-clique": {
		{"R1", []string{"A", "B"}}, {"R2", []string{"A", "C"}}, {"R3", []string{"A", "D"}},
		{"R4", []string{"A", "E"}}, {"R5", []string{"B", "C"}}, {"R6", []string{"B", "D"}},
		{"R7", []string{"B", "E"}}, {"R8", []string{"C", "D"}}, {"R9", []string{"C", "E"}},
		{"R10", []string{"D", "E"}},
	},
}

// TestGHDFacadeParity is the acceptance test of the generic planner:
// every previously-rejected cyclic shape compiles, enumerates in
// ranking order, and matches a brute-force join baseline under all five
// ranking aggregates.
func TestGHDFacadeParity(t *testing.T) {
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 7)
	aggs := []ranking.Aggregate{SumCost, SumBenefit, MaxCost, MinBenefit, ProductCost}
	for name, atoms := range ghdFacadeShapes {
		p, err := Compile(graphQuery(g, atoms))
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		for _, agg := range aggs {
			want := bruteWeights(g, atoms, agg)
			got, err := p.TopK(0, WithRanking(agg))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, agg.Name(), err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d results, brute force has %d", name, agg.Name(), len(got), len(want))
			}
			for i, r := range got {
				if i > 0 && agg.Less(r.Weight, got[i-1].Weight) {
					t.Fatalf("%s/%s: rank %d out of order", name, agg.Name(), i)
				}
				if math.Abs(r.Weight-want[i]) > 1e-9 {
					t.Fatalf("%s/%s: weight[%d] = %g, brute force %g", name, agg.Name(), i, r.Weight, want[i])
				}
			}
		}
	}
}

// TestMatchCycleFlippedOrientation is the regression test for the
// orientation-sensitive cycle matcher: cycles declared with flipped
// edges must still hit the canonical cycle fast paths, with the flipped
// relations re-oriented rather than rejected or misranked.
func TestMatchCycleFlippedOrientation(t *testing.T) {
	cases := map[string]struct {
		atoms []atomSpec
		kind  string
	}{
		"triangle-one-flip": {
			atoms: []atomSpec{
				{"R1", []string{"A", "B"}}, {"R2", []string{"C", "B"}}, {"R3", []string{"C", "A"}},
			},
			kind: "triangle",
		},
		"triangle-all-flipped": {
			atoms: []atomSpec{
				{"R1", []string{"B", "A"}}, {"R2", []string{"C", "B"}}, {"R3", []string{"A", "C"}},
			},
			kind: "triangle",
		},
		"four-cycle-flip": {
			atoms: []atomSpec{
				{"R1", []string{"A", "B"}}, {"R2", []string{"C", "B"}},
				{"R3", []string{"C", "D"}}, {"R4", []string{"D", "A"}},
			},
			kind: "four-cycle",
		},
		"five-cycle-flip": {
			atoms: []atomSpec{
				{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}}, {"R3", []string{"D", "C"}},
				{"R4", []string{"D", "E"}}, {"R5", []string{"E", "A"}},
			},
			kind: "cycle",
		},
	}
	g := workload.RandomGraph(10, 50, workload.UniformWeights(), 5)
	for name, tc := range cases {
		p, err := Compile(graphQuery(g, tc.atoms))
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if kind := p.PlanStats().Kind; kind != tc.kind {
			t.Errorf("%s: compiled to kind %s, want %s (cycle fast path)", name, kind, tc.kind)
		}
		want := bruteWeights(g, tc.atoms, SumCost)
		got, err := p.TopK(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, brute force has %d", name, len(got), len(want))
		}
		for i, r := range got {
			if math.Abs(r.Weight-want[i]) > 1e-9 {
				t.Fatalf("%s: weight[%d] = %g, brute force %g", name, i, r.Weight, want[i])
			}
		}
	}
}

// TestMatchCycleRejectsBowtie guards the occurrence check: the bowtie
// admits a closed walk through all six edges but is NOT a simple cycle,
// so it must take the GHD path, not the cycle fast path.
func TestMatchCycleRejectsBowtie(t *testing.T) {
	g := workload.RandomGraph(6, 20, workload.UniformWeights(), 2)
	p, err := Compile(graphQuery(g, ghdFacadeShapes["bowtie"]))
	if err != nil {
		t.Fatal(err)
	}
	if kind := p.PlanStats().Kind; kind != "ghd" {
		t.Fatalf("bowtie compiled to kind %s, want ghd", kind)
	}
}

// ghdLifecycleQuery returns a compiled GHD-path query with enough
// results to interrupt mid-stream.
func ghdLifecycleQuery(t *testing.T) *Prepared {
	t.Helper()
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 7)
	p, err := Compile(graphQuery(g, ghdFacadeShapes["fused-triangles"]))
	if err != nil {
		t.Fatal(err)
	}
	if p.PlanStats().Kind != "ghd" {
		t.Fatal("expected the GHD path")
	}
	return p
}

// fourCycleLifecycleQuery returns a compiled multi-tree (submodular
// 4-cycle) query, whose iterators run under core.Merge.
func fourCycleLifecycleQuery(t *testing.T) *Prepared {
	t.Helper()
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 7)
	p, err := Compile(graphQuery(g, []atomSpec{
		{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}},
		{"R3", []string{"C", "D"}}, {"R4", []string{"D", "A"}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if p.PlanStats().Kind != "four-cycle" {
		t.Fatal("expected the 4-cycle path")
	}
	return p
}

func TestGHDIteratorLifecycle(t *testing.T) {
	for name, prep := range map[string]func(*testing.T) *Prepared{
		"ghd":        ghdLifecycleQuery,
		"merge-tree": fourCycleLifecycleQuery,
	} {
		t.Run(name, func(t *testing.T) {
			p := prep(t)

			// Close mid-stream: Next stops, Err reports ErrClosed.
			it, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := it.Next(); !ok {
				t.Skip("instance has no results")
			}
			if err := it.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, ok := it.Next(); ok {
				t.Error("Next should report false after Close")
			}
			if it.Err() != ErrClosed {
				t.Errorf("Err after Close = %v, want ErrClosed", it.Err())
			}
			if err := it.Close(); err != nil {
				t.Errorf("Close must be idempotent, got %v", err)
			}

			// Context cancellation: Err reports the context error.
			ctx, cancel := context.WithCancel(context.Background())
			it, err = p.Run(WithContext(ctx))
			if err != nil {
				t.Fatal(err)
			}
			it.Next()
			cancel()
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			if it.Err() != context.Canceled {
				t.Errorf("Err after cancel = %v, want context.Canceled", it.Err())
			}
			it.Close()

			// Clean drain: Err stays nil, Close after drain stays nil.
			it, err = p.Run()
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				n++
			}
			if it.Err() != nil {
				t.Errorf("Err after clean drain = %v, want nil", it.Err())
			}
			if err := it.Close(); err != nil {
				t.Errorf("Close after drain = %v, want nil", err)
			}
			if n == 0 {
				t.Error("drain produced no results but Next succeeded earlier")
			}
		})
	}
}

// TestGHDPreparedReuse exercises the prepare-once/execute-many contract
// on the GHD path: one Compile, many Runs across aggregates and k.
func TestGHDPreparedReuse(t *testing.T) {
	p := ghdLifecycleQuery(t)
	full, err := p.TopK(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Skip("instance has no results")
	}
	top3, err := p.TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top3) != min(3, len(full)) {
		t.Fatalf("TopK(3) returned %d results", len(top3))
	}
	for i := range top3 {
		if math.Abs(top3[i].Weight-full[i].Weight) > 1e-9 {
			t.Fatalf("TopK(3)[%d] = %g, full[%d] = %g", i, top3[i].Weight, i, full[i].Weight)
		}
	}
	n, err := p.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(full) {
		t.Fatalf("Count = %d, want %d", n, len(full))
	}
	empty, err := p.IsEmpty()
	if err != nil {
		t.Fatal(err)
	}
	if empty {
		t.Error("IsEmpty = true with results present")
	}
}
