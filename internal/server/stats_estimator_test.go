package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestStatsEstimatorFields covers the /v1/stats estimator surface: a
// cyclic plan compiled through the per-dataset catalog reports
// cost_based with estimated-vs-actual bag sizes and an estimator error,
// and re-registering the dataset at a new version produces a fresh
// plan (new snapshot, new statistics) instead of reusing the stale one.
func TestStatsEstimatorFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	putEdges := func(tuples []any) {
		t.Helper()
		resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/edges", map[string]any{"tuples": tuples})
		mustStatus(t, resp, body, 200)
	}
	putEdges([]any{[]any{1, 2}, []any{2, 3}, []any{3, 1}, []any{2, 1}, []any{1, 3}, []any{3, 2}})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/queries/tri", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "edges", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "edges", "vars": []string{"B", "C"}},
			map[string]any{"dataset": "edges", "vars": []string{"C", "A"}},
		},
	})
	mustStatus(t, resp, body, 200)

	streamTopK(t, ts.URL+"/v1/query/tri/topk?k=1")
	stats := func() statsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := stats()
	if len(st.Plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(st.Plans))
	}
	p := st.Plans[0].Plan
	if p.Kind != "triangle" {
		t.Fatalf("kind = %q, want triangle", p.Kind)
	}
	if !p.CostBased {
		t.Fatal("server-compiled plan is not cost-based — the catalog did not reach Compile")
	}
	if p.EstOutput <= 0 || len(p.EstBagSizes) != 1 {
		t.Fatalf("estimates missing: est_output=%g est_bag_sizes=%v", p.EstOutput, p.EstBagSizes)
	}
	if p.EstimatorError < 1 {
		t.Fatalf("estimator_error = %g after a built ranking, want >= 1", p.EstimatorError)
	}

	// Re-register the dataset: the bumped version snapshot carries fresh
	// statistics, the plan bound to the replaced snapshot is dropped, and
	// the next run compiles a new plan against the new one — the stale
	// plan is never served for the new data.
	oldKey := st.Plans[0].Key
	putEdges([]any{[]any{5, 6}, []any{6, 7}, []any{7, 5}})
	streamTopK(t, ts.URL+"/v1/query/tri/topk?k=1")
	st = stats()
	if len(st.Plans) != 1 {
		t.Fatalf("plans after re-registration = %d, want 1 (the new snapshot's)", len(st.Plans))
	}
	if !st.Plans[0].Plan.CostBased {
		t.Fatal("plan lost cost-based planning after re-registration")
	}
	if st.Plans[0].Key == oldKey {
		t.Fatal("re-registered dataset reused the old plan key — stale statistics would survive")
	}
}
