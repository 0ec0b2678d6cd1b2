package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// streamSample fetches a /sample stream and parses the NDJSON lines.
func streamSample(t *testing.T, url string) (*http.Response, []sampleLine) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []sampleLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l sampleLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// TestSampleEndToEnd: every sampled line is one of the five path-join
// answers, the trailer carries a cardinality estimate, and the compile
// is shared with /topk (the warm /topk after sampling still hits the
// compile cache, sampling never enumerates).
func TestSampleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	resp, lines := streamSample(t, ts.URL+"/v1/query/paths/sample?n=40&seed=3")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", got)
	}
	if len(lines) < 2 {
		t.Fatalf("got %d lines, want samples + trailer", len(lines))
	}
	// The five answers of the registered 2-path fixture (see
	// registerPath) with their sum weights, in the query's output
	// schema order (B, C, A — the join-tree order the header reports).
	if got := resp.Header.Get("X-Out-Attrs"); got != "B,C,A" {
		t.Fatalf("X-Out-Attrs = %q, want B,C,A", got)
	}
	answers := map[string]float64{
		"[10 101 1]": 2, "[10 101 2]": 3, "[11 100 1]": 5,
		"[10 100 1]": 11, "[10 100 2]": 12,
	}
	body, trailer := lines[:len(lines)-1], lines[len(lines)-1]
	for _, l := range body {
		key := fmt.Sprint(tupleInts(l.Tuple))
		w, ok := answers[key]
		if !ok {
			t.Fatalf("sampled tuple %v is not a join answer", l.Tuple)
		}
		if l.Weight == nil || *l.Weight != w {
			t.Fatalf("sampled tuple %v weight %v, want %v", l.Tuple, l.Weight, w)
		}
	}
	if !trailer.Done || trailer.Count == nil || *trailer.Count != len(body) || trailer.Error != "" {
		t.Fatalf("trailer = %+v", trailer)
	}
	if trailer.AGM <= 0 || trailer.Trials <= 0 || trailer.EstCard <= 0 {
		t.Fatalf("trailer stats = %+v, want positive bound/trials/estimate", trailer)
	}
	// 40 requested from a 5-answer join with a generous default budget:
	// all 40 draws land.
	if len(body) != 40 {
		t.Fatalf("streamed %d samples, want 40", len(body))
	}

	// Same seed reproduces the same draws.
	_, again := streamSample(t, ts.URL+"/v1/query/paths/sample?n=40&seed=3")
	if len(again) != len(lines) {
		t.Fatalf("same seed drew %d lines, first run %d", len(again), len(lines))
	}
	for i := range body {
		if !reflect.DeepEqual(again[i].Tuple, body[i].Tuple) {
			t.Fatalf("same seed diverged at line %d: %v vs %v", i, again[i].Tuple, body[i].Tuple)
		}
	}

	// Sampling compiled the plan but ran no ranked preparation: the
	// first /topk still registry-misses (it joins the cached compile and
	// pays only the per-ranking warm-up).
	resp2, _ := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=1")
	if got := resp2.Header.Get("X-Plan-Cache"); got != "miss" {
		t.Fatalf("first topk X-Plan-Cache = %q, want miss (sampling must not pre-run rankings)", got)
	}
}

// tupleInts normalises decoded JSON numbers for comparison.
func tupleInts(t []any) []int64 {
	out := make([]int64, len(t))
	for i, v := range t {
		if f, ok := v.(float64); ok {
			out[i] = int64(f)
		}
	}
	return out
}

// TestSampleBudgetExhausted: a query over disjoint datasets streams
// zero samples and a done trailer flagged budget_exhausted with a zero
// estimate.
func TestSampleBudgetExhausted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/left", map[string]any{
		"tuples": []any{[]any{1, 2}, []any{3, 4}},
	})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", ts.URL+"/v1/datasets/right", map[string]any{
		"tuples": []any{[]any{5, 6}, []any{7, 8}},
	})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", ts.URL+"/v1/queries/disjoint", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "left", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "right", "vars": []string{"B", "C"}},
		},
	})
	mustStatus(t, resp, body, 200)

	hresp, lines := streamSample(t, ts.URL+"/v1/query/disjoint/sample?n=5&seed=1")
	if hresp.StatusCode != 200 {
		t.Fatalf("status %d", hresp.StatusCode)
	}
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want bare trailer: %+v", len(lines), lines)
	}
	tr := lines[0]
	if !tr.Done || !tr.Exhausted || tr.Error != "" || tr.Count == nil || *tr.Count != 0 {
		t.Fatalf("trailer = %+v, want done+budget_exhausted with 0 samples", tr)
	}
	if tr.EstCard != 0 || tr.Trials <= 0 {
		t.Fatalf("trailer = %+v, want zero estimate from positive trials", tr)
	}
}
