package repro

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/ranking"
	"repro/internal/workload"
)

// instanceQuery binds a workload instance's relations to its hypergraph.
func instanceQuery(inst *workload.Instance) *Query {
	q := NewQuery()
	for i, e := range inst.H.Edges {
		q.Rel(e.Name, e.Vars, inst.Rels[i].Tuples, inst.Rels[i].Weights)
	}
	return q
}

// chordedInstance is the pinned Zipf-skewed chorded 5-cycle the
// optimizer demonstrations run on (the same shape cmd/anyk-bench
// benchmarks, at a test-sized scale).
func chordedInstance() *workload.Instance {
	return workload.SkewedChordedCycle(400, 100, 5, 1.1, workload.UniformWeights(), 42)
}

var optimizerAggs = []ranking.Aggregate{SumCost, SumBenefit, MaxCost, MinBenefit, ProductCost}

// TestOptimizerChordedCycleCheaper pins the tentpole's demonstration:
// on the Zipf-skewed chorded 5-cycle, cost-based planning picks a
// different decomposition than the structural heuristic and
// materialises strictly fewer tuples for it.
func TestOptimizerChordedCycleCheaper(t *testing.T) {
	inst := chordedInstance()
	ph, err := Compile(instanceQuery(inst), WithStatistics(nil))
	if err != nil {
		t.Fatal(err)
	}
	po, err := Compile(instanceQuery(inst))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ph.TopK(1); err != nil {
		t.Fatal(err)
	}
	if _, err := po.TopK(1); err != nil {
		t.Fatal(err)
	}
	sh, so := ph.PlanStats(), po.PlanStats()
	if sh.CostBased {
		t.Fatalf("WithStatistics(nil) compile reports cost_based")
	}
	if !so.CostBased {
		t.Fatalf("default compile does not report cost_based")
	}
	if sh.Decomposition == so.Decomposition {
		t.Fatalf("optimizer picked the heuristic decomposition %s — the skewed fixture no longer separates them", sh.Decomposition)
	}
	th, to := sh.Rankings[0].TotalMaterialized, so.Rankings[0].TotalMaterialized
	if to >= th {
		t.Fatalf("optimized plan %s materialises %d tuples, heuristic %s only %d",
			so.Decomposition, to, sh.Decomposition, th)
	}
	t.Logf("heuristic %s total=%d; optimized %s total=%d (%.1fx less)",
		sh.Decomposition, th, so.Decomposition, to, float64(th)/float64(to))
}

// TestOptimizerParity confirms optimizer-chosen plans return identical
// results to heuristic plans across all five aggregates, on the skewed
// chorded cycle, a 4-clique, an acyclic path, and a triangle (the
// shapes covering the generic GHD, acyclic, and fast-path compile
// kinds).
func TestOptimizerParity(t *testing.T) {
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 7)
	shapes := []struct {
		name string
		q    func() *Query
	}{
		{"chorded-cycle", func() *Query { return instanceQuery(chordedInstance()) }},
		{"k4", func() *Query {
			return graphQuery(g, []atomSpec{
				{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}}, {"R3", []string{"C", "D"}},
				{"R4", []string{"A", "D"}}, {"R5", []string{"A", "C"}}, {"R6", []string{"B", "D"}},
			})
		}},
		{"path", func() *Query {
			return graphQuery(g, []atomSpec{
				{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}}, {"R3", []string{"C", "D"}},
			})
		}},
		{"triangle", func() *Query {
			return graphQuery(g, []atomSpec{
				{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}}, {"R3", []string{"C", "A"}},
			})
		}},
	}
	for _, sh := range shapes {
		ph, err := Compile(sh.q(), WithStatistics(nil))
		if err != nil {
			t.Fatalf("%s: heuristic compile: %v", sh.name, err)
		}
		po, err := Compile(sh.q())
		if err != nil {
			t.Fatalf("%s: optimized compile: %v", sh.name, err)
		}
		for _, agg := range optimizerAggs {
			rh, err := ph.TopK(0, WithRanking(agg))
			if err != nil {
				t.Fatalf("%s/%s: heuristic run: %v", sh.name, agg.Name(), err)
			}
			ro, err := po.TopK(0, WithRanking(agg))
			if err != nil {
				t.Fatalf("%s/%s: optimized run: %v", sh.name, agg.Name(), err)
			}
			if err := sameResults(rh, ro); err != nil {
				t.Fatalf("%s/%s: %v", sh.name, agg.Name(), err)
			}
		}
	}
}

// sameResults checks two ranked result sets are identical: equal weight
// sequences, and equal tuple multisets (enumeration may break weight
// ties differently between plans, so tuples compare order-insensitively).
func sameResults(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("result counts differ: %d vs %d", len(a), len(b))
	}
	keys := func(rs []Result) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprint(r.Tuple)
		}
		sort.Strings(out)
		return out
	}
	ka, kb := keys(a), keys(b)
	for i := range a {
		if math.Abs(a[i].Weight-b[i].Weight) > 1e-9 {
			return fmt.Errorf("weight %d differs: %g vs %g", i, a[i].Weight, b[i].Weight)
		}
		if ka[i] != kb[i] {
			return fmt.Errorf("tuple multisets differ at %d: %s vs %s", i, ka[i], kb[i])
		}
	}
	return nil
}

// TestPlanStatsEstimates covers the estimator surface: estimated vs
// actual bag sizes, the error factor, and the recost flag.
func TestPlanStatsEstimates(t *testing.T) {
	p, err := Compile(instanceQuery(chordedInstance()))
	if err != nil {
		t.Fatal(err)
	}
	st := p.PlanStats()
	if !st.CostBased || st.EstOutput <= 0 || len(st.EstBagSizes) == 0 {
		t.Fatalf("cost-based compile missing estimates: %+v", st)
	}
	if st.EstimatorError != 0 {
		t.Fatalf("estimator error %g before any ranking was built", st.EstimatorError)
	}
	if _, err := p.TopK(1); err != nil {
		t.Fatal(err)
	}
	st = p.PlanStats()
	if st.EstimatorError < 1 {
		t.Fatalf("estimator error %g after build, want >= 1", st.EstimatorError)
	}
	// The recost flag is the comparison against the fixed factor 8.
	if st.NeedsRecost != (st.EstimatorError > 8) {
		t.Fatalf("needs_recost %v with estimator error %g", st.NeedsRecost, st.EstimatorError)
	}

	// Acyclic handles compare the output estimate against the exact
	// solution count known at compile time.
	g := workload.RandomGraph(8, 40, workload.UniformWeights(), 7)
	pa, err := Compile(graphQuery(g, []atomSpec{
		{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	sta := pa.PlanStats()
	if !sta.CostBased || sta.EstimatorError < 1 {
		t.Fatalf("acyclic estimator stats missing: %+v", sta)
	}
	if sta.NeedsRecost != (sta.EstimatorError > 8) {
		t.Fatalf("acyclic needs_recost %v with estimator error %g", sta.NeedsRecost, sta.EstimatorError)
	}
}
