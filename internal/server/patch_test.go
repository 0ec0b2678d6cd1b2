package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// errCode extracts the machine-readable code from an error envelope.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response is not an error envelope: %v", body)
	}
	code, _ := env["code"].(string)
	if code == "" {
		t.Fatalf("error envelope has no code: %v", body)
	}
	if msg, _ := env["message"].(string); msg == "" {
		t.Fatalf("error envelope has no message: %v", body)
	}
	return code
}

// TestDatasetPatchWarmPlans is the serving-layer acceptance test for
// deltas: a PATCH advances the dataset snapshot AND the warm compiled
// plan in place, so the next request is a registry hit (zero
// preparation) that serves the updated data.
func TestDatasetPatchWarmPlans(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	// Warm the sum plan: cold miss, then hit.
	resp, _ := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=3&agg=sum")
	if got := resp.Header.Get("X-Plan-Cache"); got != "miss" {
		t.Fatalf("cold request X-Plan-Cache = %q, want miss", got)
	}

	// Delete (10,101) (killing join results with weight 2 and 3) and
	// append (10,102) with weight 0.5 (creating results 1.5 and 2.5).
	resp2, body := doJSON(t, "PATCH", ts.URL+"/v1/datasets/r2", map[string]any{
		"delete":         []any{[]any{10, 101}},
		"append":         []any{[]any{10, 102}},
		"append_weights": []float64{0.5},
	})
	mustStatus(t, resp2, body, 200)
	if body["version"] != float64(2) || body["epoch"] != float64(2) {
		t.Fatalf("patch response versions = %v", body)
	}
	if body["appended"] != float64(1) || body["deleted"] != float64(1) {
		t.Fatalf("patch response counts = %v", body)
	}
	if body["plans_patched"] != float64(1) {
		t.Fatalf("plans_patched = %v, want 1", body["plans_patched"])
	}

	// The warm entry survived the delta under the new-version key: hit,
	// and the stream reflects the patched data bit-for-bit.
	resp3, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=3&agg=sum")
	if got := resp3.Header.Get("X-Plan-Cache"); got != "hit" {
		t.Fatalf("post-patch X-Plan-Cache = %q, want hit (warm plan dropped)", got)
	}
	wantWeights := []float64{1.5, 2.5, 5}
	if len(lines) != 4 {
		t.Fatalf("post-patch stream has %d lines: %+v", len(lines), lines)
	}
	for i, w := range wantWeights {
		if lines[i].Weight == nil || *lines[i].Weight != w {
			t.Fatalf("post-patch line %d weight = %v, want %v", i, lines[i].Weight, w)
		}
	}

	// Dataset listing reports the bumped version and epoch.
	respL, bodyL := doJSON(t, "GET", ts.URL+"/v1/datasets", nil)
	mustStatus(t, respL, bodyL, 200)
	found := false
	for _, d := range bodyL["datasets"].([]any) {
		ds := d.(map[string]any)
		if ds["name"] == "r2" {
			found = true
			if ds["version"] != float64(2) || ds["epoch"] != float64(2) {
				t.Fatalf("listed r2 = %v", ds)
			}
		} else if ds["epoch"] != float64(1) {
			t.Fatalf("unpatched dataset %v should be at epoch 1", ds)
		}
	}
	if !found {
		t.Fatalf("r2 missing from listing: %v", bodyL)
	}

	// /v1/stats counts the delta and the patched handle, and the resident
	// plan's own stats expose its advanced epoch.
	if got := s.met.patches.Value(); got != 1 {
		t.Fatalf("patches counter = %d", got)
	}
	respS, bodyS := doJSON(t, "GET", ts.URL+"/v1/stats", nil)
	mustStatus(t, respS, bodyS, 200)
	if bodyS["patches"] != float64(1) || bodyS["plans_patched"] != float64(1) {
		t.Fatalf("stats patches = %v plans_patched = %v", bodyS["patches"], bodyS["plans_patched"])
	}
	plans := bodyS["plans"].([]any)
	if len(plans) == 0 {
		t.Fatal("no resident plans after patch")
	}
	for _, pl := range plans {
		st := pl.(map[string]any)["plan"].(map[string]any)
		if st["epoch"] != float64(2) || st["deltas_applied"] != float64(1) {
			t.Fatalf("resident plan stats = %v, want epoch 2 with 1 delta", st)
		}
	}
}

// TestDatasetPatchAppendOnly: a pure append bumps the version and
// epoch and reports no statistics — the server keeps none; a plan
// compiled later collects them from the snapshot it binds to.
func TestDatasetPatchAppendOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	resp, body := doJSON(t, "PATCH", ts.URL+"/v1/datasets/r1", map[string]any{
		"append": []any{[]any{3, 12}, []any{3, 13}},
	})
	mustStatus(t, resp, body, 200)
	for _, key := range []string{"stats", "stats_version"} {
		if _, ok := body[key]; ok {
			t.Fatalf("append-only response carries %q: %v", key, body)
		}
	}
	if body["version"] != float64(2) || body["epoch"] != float64(2) {
		t.Fatalf("append-only response versions = %v", body)
	}
	if body["appended"] != float64(2) || body["deleted"] != float64(0) {
		t.Fatalf("counts = %v", body)
	}

	// Deletes that all miss leave the snapshot (and every version) alone.
	resp2, body2 := doJSON(t, "PATCH", ts.URL+"/v1/datasets/r1", map[string]any{
		"delete": []any{[]any{99, 99}},
	})
	mustStatus(t, resp2, body2, 200)
	if body2["version"] != float64(2) || body2["epoch"] != float64(2) || body2["deleted"] != float64(0) {
		t.Fatalf("no-op patch response = %v", body2)
	}
}

// TestDatasetPatchCSV covers the CSV body modes: ?mode=append parses
// like an upload (trailing weight column), ?mode=delete parses value
// columns only.
func TestDatasetPatchCSV(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	do := func(query, csv string) (*http.Response, map[string]any) {
		t.Helper()
		req, err := http.NewRequest("PATCH", ts.URL+"/v1/datasets/r2"+query, bytes.NewReader([]byte(csv)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "text/csv")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return resp, out
	}

	resp, body := do("", "b,c,w\n10,103,7\n")
	mustStatus(t, resp, body, 200)
	if body["appended"] != float64(1) || body["rows"] != float64(4) {
		t.Fatalf("CSV append response = %v", body)
	}
	resp2, body2 := do("?mode=delete", "b,c\n10,103\n")
	mustStatus(t, resp2, body2, 200)
	if body2["deleted"] != float64(1) || body2["rows"] != float64(3) {
		t.Fatalf("CSV delete response = %v", body2)
	}
	resp3, body3 := do("?mode=sideways", "b,c\n1,2\n")
	mustStatus(t, resp3, body3, 400)
	if code := errCode(t, body3); code != errInvalidArgument {
		t.Fatalf("bad mode code = %q", code)
	}
	// A NaN weight has no rank: refused at ingest, PATCH and POST alike.
	resp4, body4 := do("", "b,c,w\n10,104,NaN\n")
	mustStatus(t, resp4, body4, 400)
	if code := errCode(t, body4); code != errInvalidArgument {
		t.Fatalf("NaN weight code = %q", code)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/datasets/r9?weights=true", strings.NewReader("b,c,w\n1,2,nan\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != 400 {
		t.Fatalf("CSV upload with a NaN weight: status %d, want 400", resp5.StatusCode)
	}
}

// TestDatasetPatchErrors pins the PATCH error contract and the unified
// error envelope's machine-readable codes.
func TestDatasetPatchErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	cases := []struct {
		name   string
		url    string
		body   any
		status int
		code   string
	}{
		{"unknown dataset", "/v1/datasets/nope", map[string]any{"append": []any{[]any{1, 2}}}, 404, errNotFound},
		{"bad name", "/v1/datasets/no%20pe", nil, 400, errInvalidArgument},
		{"empty delta", "/v1/datasets/r1", map[string]any{}, 400, errInvalidArgument},
		{"arity mismatch", "/v1/datasets/r1", map[string]any{"append": []any{[]any{1, 2, 3}}}, 400, errInvalidArgument},
		{"weights mismatch", "/v1/datasets/r1", map[string]any{"append": []any{[]any{1, 2}}, "append_weights": []float64{1, 2}}, 400, errInvalidArgument},
	}
	for _, tc := range cases {
		resp, body := doJSON(t, "PATCH", ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, body)
		}
		if code := errCode(t, body); code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, code, tc.code)
		}
	}
	// Failed patches must not bump anything.
	_, bodyL := doJSON(t, "GET", ts.URL+"/v1/datasets", nil)
	for _, d := range bodyL["datasets"].([]any) {
		ds := d.(map[string]any)
		if ds["version"] != float64(1) || ds["epoch"] != float64(1) {
			t.Fatalf("failed patches changed dataset state: %v", ds)
		}
	}
}

// TestErrorEnvelopeAcrossEndpoints spot-checks that the other /v1
// handlers emit the same envelope with the right codes.
func TestErrorEnvelopeAcrossEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	resp, body := doJSON(t, "GET", ts.URL+"/v1/query/nope/topk", nil)
	mustStatus(t, resp, body, 404)
	if code := errCode(t, body); code != errNotFound {
		t.Fatalf("unknown query code = %q", code)
	}
	resp, body = doJSON(t, "GET", ts.URL+"/v1/query/paths/topk?k=zero", nil)
	mustStatus(t, resp, body, 400)
	if code := errCode(t, body); code != errInvalidArgument {
		t.Fatalf("bad k code = %q", code)
	}
	// r2 carries a zero weight, on which product is not monotone: the
	// request is refused with the row named, not streamed in some order.
	resp, body = doJSON(t, "GET", ts.URL+"/v1/query/paths/topk?agg=product", nil)
	mustStatus(t, resp, body, 400)
	if code := errCode(t, body); code != errInvalidArgument {
		t.Fatalf("agg=product over a zero weight: code = %q", code)
	}
	if msg := body["error"].(map[string]any)["message"].(string); !strings.Contains(msg, "relation r2#1 row 2 has weight 0") {
		t.Fatalf("agg=product over a zero weight: message %q does not name the row", msg)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/queries/bad", map[string]any{"atoms": []any{}})
	mustStatus(t, resp, body, 400)
	if code := errCode(t, body); code != errInvalidArgument {
		t.Fatalf("empty query code = %q", code)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/datasets/bad", map[string]any{"tuples": []any{}})
	mustStatus(t, resp, body, 400)
	if code := errCode(t, body); code != errInvalidArgument {
		t.Fatalf("empty dataset code = %q", code)
	}
}

// TestDatasetPatchSnapshotMatchesHandles pins that a PATCH leaves one
// state behind, not two: the dataset snapshot and the handles patched
// from the same delta are built by one function (Relation.ApplyDelta),
// so after a delta with a repeated delete tuple, a delete that misses,
// and a tuple both deleted and re-appended, the snapshot, every patched
// handle and a cold upload of the expected rows agree row for row.
func TestDatasetPatchSnapshotMatchesHandles(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	type row struct {
		a, b int
		w    float64
	}
	upload := func(name string, rows []row) {
		t.Helper()
		tuples, weights := make([]any, len(rows)), make([]float64, len(rows))
		for i, r := range rows {
			tuples[i], weights[i] = []any{r.a, r.b}, r.w
		}
		resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/"+name, map[string]any{"tuples": tuples, "weights": weights})
		mustStatus(t, resp, body, 200)
	}
	register := func(name string, atoms ...any) {
		t.Helper()
		resp, body := doJSON(t, "POST", ts.URL+"/v1/queries/"+name, map[string]any{"atoms": atoms})
		mustStatus(t, resp, body, 200)
	}
	// Weights are distinct, so a ranked read lists a handle's rows in one
	// determined order; (1,10) is there twice.
	upload("d", []row{{1, 10, 1}, {2, 20, 2}, {1, 10, 3}, {3, 30, 4}, {4, 40, 5}})
	want := []row{{2, 20, 2}, {4, 40, 5}, {3, 30, 40}, {5, 50, 50}}
	upload("cold", want)
	// eq pairs every B value with itself at weight 0: joining through it
	// reads d's rows back from a second, two-atom handle.
	upload("eq", []row{{10, 10, 0}, {20, 20, 0}, {30, 30, 0}, {40, 40, 0}, {50, 50, 0}})
	register("one", map[string]any{"dataset": "d", "vars": []string{"A", "B"}})
	register("two", map[string]any{"dataset": "d", "vars": []string{"A", "B"}}, map[string]any{"dataset": "eq", "vars": []string{"B", "C"}})
	register("coldone", map[string]any{"dataset": "cold", "vars": []string{"A", "B"}})

	// read returns the (A, B, weight) rows a query streams, in rank order.
	read := func(q, wantCache string) []row {
		t.Helper()
		resp, lines := streamTopK(t, ts.URL+"/v1/query/"+q+"/topk?k=100&agg=sum")
		if got := resp.Header.Get("X-Plan-Cache"); got != wantCache {
			t.Fatalf("%s: X-Plan-Cache = %q, want %q", q, got, wantCache)
		}
		attrs := strings.Split(resp.Header.Get("X-Out-Attrs"), ",")
		a, b := slices.Index(attrs, "A"), slices.Index(attrs, "B")
		var out []row
		for _, l := range lines {
			if l.Weight != nil {
				out = append(out, row{int(l.Tuple[a].(float64)), int(l.Tuple[b].(float64)), *l.Weight})
			}
		}
		return out
	}
	read("one", "miss")
	read("two", "miss")

	resp, body := doJSON(t, "PATCH", ts.URL+"/v1/datasets/d", map[string]any{
		"delete":         []any{[]any{1, 10}, []any{1, 10}, []any{9, 90}, []any{3, 30}},
		"append":         []any{[]any{3, 30}, []any{5, 50}},
		"append_weights": []float64{40, 50},
	})
	mustStatus(t, resp, body, 200)
	if body["deleted"] != float64(3) || body["appended"] != float64(2) || body["plans_patched"] != float64(2) {
		t.Fatalf("patch response = %v, want 3 deleted, 2 appended, 2 plans patched", body)
	}

	// The snapshot against the cold upload, in stored order.
	snapshot := func(name string) []row {
		s.mu.RLock()
		defer s.mu.RUnlock()
		ds := s.datasets[name]
		out := make([]row, len(ds.tuples))
		for i, tp := range ds.tuples {
			out[i] = row{int(tp[0]), int(tp[1]), ds.weights[i]}
		}
		return out
	}
	if got := snapshot("d"); !slices.Equal(got, want) || !slices.Equal(snapshot("cold"), want) {
		t.Fatalf("snapshot after PATCH = %v, cold upload = %v, want %v", got, snapshot("cold"), want)
	}
	// Both patched handles (warm: a hit means the PATCH advanced them)
	// against a handle compiled cold on the expected rows.
	cold := read("coldone", "miss")
	if !slices.Equal(cold, want) { // want is already in weight order
		t.Fatalf("cold handle rows = %v, want %v", cold, want)
	}
	for _, q := range []string{"one", "two"} {
		if got := read(q, "hit"); !slices.Equal(got, cold) {
			t.Fatalf("patched handle %s rows = %v, cold handle rows = %v", q, got, cold)
		}
	}
}
