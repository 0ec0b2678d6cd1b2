package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"repro"
)

// getStats reads the /v1/stats payload.
func getStats(t *testing.T, base string) statsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
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

// TestStatsEstimatorFields covers the /v1/stats estimator surface: a
// cyclic plan reports estimated-vs-actual bag sizes and an estimator
// error, and re-registering the dataset at a new version produces a
// fresh plan (new snapshot, new statistics) instead of reusing the
// stale one.
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
	st := getStats(t, ts.URL)
	if len(st.Plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(st.Plans))
	}
	p := st.Plans[0].Plan
	if p.Kind != "triangle" {
		t.Fatalf("kind = %q, want triangle", p.Kind)
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
	st = getStats(t, ts.URL)
	if len(st.Plans) != 1 {
		t.Fatalf("plans after re-registration = %d, want 1 (the new snapshot's)", len(st.Plans))
	}
	if st.Plans[0].Key == oldKey {
		t.Fatal("re-registered dataset reused the old plan key — stale statistics would survive")
	}
}

// TestPlanStatisticsFollowTheData: a plan compiled after a PATCH is
// planned from the rows the server holds, not from the history of how
// they arrived, so its estimates equal those of repro.Compile over the
// same tuples. The join column takes more distinct values than a
// column's statistics keep frequent values (63), so the frequent values
// of the upload and of the append, put together, would not be those of
// the data.
func TestPlanStatisticsFollowTheData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(7))
	rows := func(n int) [][]any {
		out := make([][]any, n)
		for i := range out {
			// B is skewed over 100 values: a few heavy, a long light tail.
			out[i] = []any{rng.Intn(300), rng.Intn(1 + rng.Intn(100))}
		}
		return out
	}
	upload, appended := rows(300), rows(300)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/edges", map[string]any{"tuples": upload})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "PATCH", ts.URL+"/v1/datasets/edges", map[string]any{"append": appended})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", ts.URL+"/v1/queries/hops", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "edges", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "edges", "vars": []string{"B", "C"}},
		},
	})
	mustStatus(t, resp, body, 200)
	streamTopK(t, ts.URL+"/v1/query/hops/topk?k=1")
	st := getStats(t, ts.URL)
	if len(st.Plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(st.Plans))
	}
	got := st.Plans[0].Plan

	var tuples []repro.Tuple
	for _, r := range slices.Concat(upload, appended) {
		tuples = append(tuples, repro.Tuple{repro.Value(r[0].(int)), repro.Value(r[1].(int))})
	}
	p, err := repro.Compile(repro.NewQuery().
		Rel("R", []string{"A", "B"}, tuples, nil).
		Rel("S", []string{"B", "C"}, tuples, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := p.PlanStats()
	if got.EstOutput != want.EstOutput || !slices.Equal(got.EstBagSizes, want.EstBagSizes) {
		t.Fatalf("server plan estimates est_output=%v est_bag_sizes=%v, library over the same tuples %v %v",
			got.EstOutput, got.EstBagSizes, want.EstOutput, want.EstBagSizes)
	}
}
