package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp, out
}

func mustStatus(t *testing.T, resp *http.Response, body map[string]any, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("%s: status %d, want %d (body %v)", resp.Request.URL, resp.StatusCode, want, body)
	}
}

// registerPath registers two small relations and a 2-path query named
// "paths". Join results under sum: (1,10,101):2 (2,10,101):3
// (1,11,100):5 (1,10,100):11 (2,10,100):12.
func registerPath(t *testing.T, base string) {
	t.Helper()
	resp, body := doJSON(t, "POST", base+"/v1/datasets/r1", map[string]any{
		"tuples":  []any{[]any{1, 10}, []any{1, 11}, []any{2, 10}},
		"weights": []float64{1, 5, 2},
	})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", base+"/v1/datasets/r2", map[string]any{
		"tuples":  []any{[]any{10, 100}, []any{10, 101}, []any{11, 100}},
		"weights": []float64{10, 1, 0},
	})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", base+"/v1/queries/paths", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "r1", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "r2", "vars": []string{"B", "C"}},
		},
	})
	mustStatus(t, resp, body, 200)
	if body["fingerprint"] == "" {
		t.Fatal("query registration did not return a fingerprint")
	}
}

// streamTopK fetches a topk stream and parses the NDJSON lines.
func streamTopK(t *testing.T, url string) (*http.Response, []topkLine) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []topkLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l topkLine
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

func TestTopKEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	resp, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=3&agg=sum&variant=Lazy")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", got)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 results + trailer: %+v", len(lines), lines)
	}
	wantWeights := []float64{2, 3, 5}
	for i, w := range wantWeights {
		if lines[i].Weight == nil || *lines[i].Weight != w {
			t.Fatalf("line %d weight = %v, want %v", i, lines[i].Weight, w)
		}
		if len(lines[i].Tuple) != 3 {
			t.Fatalf("line %d tuple = %v, want arity 3", i, lines[i].Tuple)
		}
	}
	tr := lines[3]
	if !tr.Done || tr.Count == nil || *tr.Count != 3 || tr.Error != "" {
		t.Fatalf("trailer = %+v, want done with count 3", tr)
	}

	// First request was a cold miss, the second identical one must hit.
	if got := resp.Header.Get("X-Plan-Cache"); got != "miss" {
		t.Fatalf("first request X-Plan-Cache = %q, want miss", got)
	}
	resp2, lines2 := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=3")
	if got := resp2.Header.Get("X-Plan-Cache"); got != "hit" {
		t.Fatalf("second request X-Plan-Cache = %q, want hit", got)
	}
	if len(lines2) != 4 {
		t.Fatalf("warm request returned %d lines", len(lines2))
	}

	// Different k and variant reuse the same plan (same key).
	resp3, lines3 := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=100&variant=Rec")
	if got := resp3.Header.Get("X-Plan-Cache"); got != "hit" {
		t.Fatalf("variant change X-Plan-Cache = %q, want hit", got)
	}
	if n := len(lines3); n != 6 { // all 5 results + trailer
		t.Fatalf("k=100 returned %d lines, want 6", n)
	}
	// A different ranking is a new key: cold once, then warm.
	resp4, _ := streamTopK(t, ts.URL+"/v1/query/paths/topk?agg=max")
	if got := resp4.Header.Get("X-Plan-Cache"); got != "miss" {
		t.Fatalf("new agg X-Plan-Cache = %q, want miss", got)
	}
}

// TestTopKCartesianProduct: a query over two datasets with no shared
// variable streams their ranked product, each answer a row of each
// dataset in the order out_attrs names.
func TestTopKCartesianProduct(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/queries/pairs", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "r1", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "r2", "vars": []string{"C", "D"}},
		},
	})
	mustStatus(t, resp, body, 200)
	if got := fmt.Sprint(body["out_attrs"]); got != "[C D A B]" {
		t.Errorf("out_attrs %s, want [C D A B]", got)
	}

	resp, lines := streamTopK(t, ts.URL+"/v1/query/pairs/topk?k=100")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %+v", resp.StatusCode, lines)
	}
	wantWeights := []float64{1, 2, 2, 3, 5, 6, 11, 12, 15}
	if len(lines) != len(wantWeights)+1 {
		t.Fatalf("got %d lines, want %d results + trailer: %+v", len(lines), len(wantWeights), lines)
	}
	for i, w := range wantWeights {
		if lines[i].Weight == nil || *lines[i].Weight != w || len(lines[i].Tuple) != 4 {
			t.Fatalf("line %d = %+v, want weight %v over 4 values", i, lines[i], w)
		}
	}
	if got := fmt.Sprint(lines[0].Tuple); got != "[11 100 1 10]" {
		t.Errorf("first answer %s, want [11 100 1 10]", got)
	}
	if tr := lines[len(wantWeights)]; !tr.Done || tr.Count == nil || *tr.Count != len(wantWeights) || tr.Error != "" {
		t.Fatalf("trailer = %+v, want done with count %d", tr, len(wantWeights))
	}
}

// TestWarmHitsDoZeroPreparation is the acceptance criterion: under
// concurrent load on a warm key the registry reports hits only, the
// prepared handle is shared, and exactly one preparation ever ran.
func TestWarmHitsDoZeroPreparation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 128})
	registerPath(t, ts.URL)

	// Cold burst: 32 concurrent requests race on an unbuilt key.
	const burst = 32
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/query/paths/topk?k=2")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := s.reg.misses.Load(); m != 1 {
		t.Fatalf("cold burst ran %d preparations, want exactly 1", m)
	}
	if h := s.reg.hits.Load(); h != burst-1 {
		t.Fatalf("cold burst hits = %d, want %d", h, burst-1)
	}

	// Warm burst: all hits, zero new preparations.
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/query/paths/topk?k=2")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if m := s.reg.misses.Load(); m != 1 {
		t.Fatalf("warm burst re-prepared: misses = %d, want still 1", m)
	}
	if h := s.reg.hits.Load(); h != 2*burst-1 {
		t.Fatalf("warm burst hits = %d, want %d", h, 2*burst-1)
	}
}

func TestCSVDatasetAndStringJoin(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := "city,airport,w\nboston,BOS,1\nnyc,JFK,2\nnyc,LGA,3\n"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/datasets/airports?weights=true", strings.NewReader(csv))
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("CSV upload status %d", resp.StatusCode)
	}
	// A JSON dataset joining on the string column.
	r2, body := doJSON(t, "POST", ts.URL+"/v1/datasets/hotels", map[string]any{
		"tuples":  []any{[]any{"nyc", 5}, []any{"boston", 3}},
		"weights": []float64{10, 20},
	})
	mustStatus(t, r2, body, 200)
	r3, body := doJSON(t, "POST", ts.URL+"/v1/queries/trips", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "airports", "vars": []string{"City", "Airport"}},
			map[string]any{"dataset": "hotels", "vars": []string{"City", "Stars"}},
		},
	})
	mustStatus(t, r3, body, 200)
	_, lines := streamTopK(t, ts.URL+"/v1/query/trips/topk?k=10")
	if len(lines) != 4 { // 3 join results + trailer
		t.Fatalf("got %d lines: %+v", len(lines), lines)
	}
	// Dictionary codes must come back as the uploaded strings.
	found := false
	for _, l := range lines[:3] {
		for _, c := range l.Tuple {
			if c == "boston" || c == "nyc" || c == "BOS" || c == "JFK" || c == "LGA" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no decoded strings in output: %+v", lines[:3])
	}
}

func TestDatasetVersioningInvalidatesPlans(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)
	_, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=1")
	if *lines[0].Weight != 2 {
		t.Fatalf("initial top-1 weight = %v", *lines[0].Weight)
	}
	// Replace r2 with different weights; the next request must see the
	// new data (new version = new plan key), not the cached plan.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/r2", map[string]any{
		"tuples":  []any{[]any{10, 100}, []any{10, 101}, []any{11, 100}},
		"weights": []float64{0, 100, 100},
	})
	mustStatus(t, resp, body, 200)
	if v := body["version"].(float64); v != 2 {
		t.Fatalf("version = %v, want 2", v)
	}
	resp2, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=1")
	if got := resp2.Header.Get("X-Plan-Cache"); got != "miss" {
		t.Fatalf("after re-register X-Plan-Cache = %q, want miss", got)
	}
	if *lines[0].Weight != 1 { // (1,10) w=1 + (10,100) w=0
		t.Fatalf("top-1 weight after update = %v, want 1", *lines[0].Weight)
	}
	if s.reg.misses.Load() != 2 {
		t.Fatalf("misses = %d, want 2 (one per version)", s.reg.misses.Load())
	}
	// The re-upload dropped the handle bound to the replaced snapshot —
	// a full copy of data no request will ask for again.
	if n := s.reg.size(); n != 1 {
		t.Fatalf("registry size = %d after re-upload and read, want 1 (orphaned handle not dropped)", n)
	}
}

// TestArityChangeConflicts: re-registering a dataset with a different
// arity must turn requests on stale queries into a 409, not a 500.
func TestArityChangeConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/r2", map[string]any{
		"tuples": []any{[]any{10, 100, 7}},
	})
	mustStatus(t, resp, body, 200)
	r2, err := http.Get(ts.URL + "/v1/query/paths/topk?k=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Fatalf("stale query after arity change: status %d, want 409", r2.StatusCode)
	}
	// Re-registering the query against the new shape recovers.
	resp, body = doJSON(t, "POST", ts.URL+"/v1/queries/paths", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "r1", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "r2", "vars": []string{"B", "C", "D"}},
		},
	})
	mustStatus(t, resp, body, 200)
	_, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=1")
	if len(lines) != 2 || *lines[0].Weight != 1 {
		t.Fatalf("recovered query returned %+v", lines)
	}
}

func TestSharedPlansAcrossQueryNames(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)
	// Same shape, same datasets, different name: shares the plan.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/queries/paths2", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "r1", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "r2", "vars": []string{"B", "C"}},
		},
	})
	mustStatus(t, resp, body, 200)
	streamTopK(t, ts.URL+"/v1/query/paths/topk?k=1")
	resp2, _ := streamTopK(t, ts.URL+"/v1/query/paths2/topk?k=1")
	if got := resp2.Header.Get("X-Plan-Cache"); got != "hit" {
		t.Fatalf("same-shape query X-Plan-Cache = %q, want hit", got)
	}
	if s.reg.misses.Load() != 1 {
		t.Fatalf("misses = %d, want 1 shared plan", s.reg.misses.Load())
	}
}

// TestCompileSharedAcrossRankings: a second ranking on a resident
// handle is a registry miss (its warm-up runs) that reuses the compile:
// one resident plan, whose PlanStats lists every warmed ranking.
func TestCompileSharedAcrossRankings(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)
	streamTopK(t, ts.URL+"/v1/query/paths/topk?k=1&agg=sum")
	streamTopK(t, ts.URL+"/v1/query/paths/topk?k=1&agg=max")
	if m := s.reg.misses.Load(); m != 2 {
		t.Fatalf("misses = %d, want 2 (one per ranking)", m)
	}
	plans := s.reg.snapshot()
	if len(plans) != 1 || s.reg.size() != 1 {
		t.Fatalf("%d resident plans (size %d), want 1 handle for both rankings", len(plans), s.reg.size())
	}
	var names []string
	for _, rk := range plans[0].Plan.Rankings {
		names = append(names, rk.Ranking)
	}
	if len(names) != 2 || names[0] != "max" || names[1] != "sum" {
		t.Fatalf("plan %s rankings = %v, want [max sum]", plans[0].Key, names)
	}
}

// TestDictCodeSpaceRejected: integer values at or above the dictionary
// code base (2^40) would alias string codes; both ingest paths must
// refuse them.
func TestDictCodeSpaceRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/huge", map[string]any{
		"tuples": []any{[]any{int64(1) << 41, 2}},
	})
	if resp.StatusCode != 400 {
		t.Fatalf("JSON huge int: status %d (body %v), want 400", resp.StatusCode, body)
	}
	csv := "a,b\n2199023255552,1\n"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/datasets/hugecsv?weights=false", strings.NewReader(csv))
	req.Header.Set("Content-Type", "text/csv")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Fatalf("CSV huge int: status %d, want 400", r2.StatusCode)
	}
}

// TestReorderedAtomsStreamTheirOwnSchema: atom declaration order
// drives the acyclic output column order, so two reorderings of one
// shape must never serve each other's cached plan with mislabeled
// columns — every response's tuples must match its own registration's
// out_attrs.
func TestReorderedAtomsStreamTheirOwnSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/queries/rev", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "r2", "vars": []string{"B", "C"}},
			map[string]any{"dataset": "r1", "vars": []string{"A", "B"}},
		},
	})
	mustStatus(t, resp, body, 200)

	// The best solution is (A,B,C) = (1,10,101) with weight 2; each
	// query must stream it permuted to its own out_attrs.
	want := map[string]float64{"A": 1, "B": 10, "C": 101}
	for _, q := range []string{"paths", "rev"} {
		r2, err := http.Get(ts.URL + "/v1/query/" + q + "/topk?k=1")
		if err != nil {
			t.Fatal(err)
		}
		attrs := strings.Split(r2.Header.Get("X-Out-Attrs"), ",")
		sc := bufio.NewScanner(r2.Body)
		if !sc.Scan() {
			t.Fatalf("%s: empty stream", q)
		}
		var line topkLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if len(line.Tuple) != len(attrs) {
			t.Fatalf("%s: tuple %v vs attrs %v", q, line.Tuple, attrs)
		}
		for i, a := range attrs {
			if got := line.Tuple[i].(float64); got != want[a] {
				t.Fatalf("%s: column %s = %v, want %v (attrs %v, tuple %v)", q, a, got, want[a], attrs, line.Tuple)
			}
		}
	}
}

// TestQueryParamErrors covers the addressable client mistakes /topk
// answers before it admits a request, and pins that it is the only
// query endpoint: a registered query's .../sample is not routed.
func TestQueryParamErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxK: 100})
	registerPath(t, ts.URL)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/v1/query/nope/topk", 404},
		{"/v1/query/paths/topk?k=0", 400},
		{"/v1/query/paths/topk?k=banana", 400},
		{"/v1/query/paths/topk?k=101", 400},
		{"/v1/query/paths/topk?agg=median", 400},
		{"/v1/query/paths/topk?timeout=fast", 400},
		{"/v1/query/paths/topk?variant=Bogus", 400},
		{"/v1/query/paths/sample?n=1", 404},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
}

func TestDeadlineCancelsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)
	// Warm the plan so the deadline hits enumeration, not preparation.
	streamTopK(t, ts.URL+"/v1/query/paths/topk?k=1")
	_, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=5&timeout=1ns")
	last := lines[len(lines)-1]
	if last.Error == "" || !strings.Contains(last.Error, "deadline") {
		t.Fatalf("expected a deadline error trailer, got %+v", lines)
	}
}

func TestAdmissionControl429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	registerBigPath(t, ts.URL)

	// Hold the only slot with a request whose body we don't drain.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/query/big/topk?k=1000000&timeout=30s", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // stream is live
		t.Fatal(err)
	}

	resp2, err := http.Get(ts.URL + "/v1/query/big/topk?k=1")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	derr := json.NewDecoder(resp2.Body).Decode(&eb)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp2.StatusCode)
	}
	if ra := resp2.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 with Retry-After %q, want 1", ra)
	}
	if derr != nil || eb.Error.Code != errRateLimited {
		t.Fatalf("429 envelope = %+v (err %v), want code %q", eb, derr, errRateLimited)
	}
	if s.met.rejected.Value() != 1 {
		t.Fatalf("rejected = %d, want 1", s.met.rejected.Value())
	}

	// Releasing the slot (client disconnect) re-admits requests.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp3, err := http.Get(ts.URL + "/v1/query/big/topk?k=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp3.Body)
		resp3.Body.Close()
		if resp3.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: status %d", resp3.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// registerBigPath registers a 2-path with one million results (2000
// tuples per side, join-variable domain 4, so each of the 4 join values
// contributes 500×500 pairs): streams are tens of megabytes — far past
// any TCP/HTTP buffering — so a client that stops reading reliably
// write-blocks the handler mid-stream.
func registerBigPath(t *testing.T, base string) {
	t.Helper()
	const n = 2000
	var t1, t2 []any
	var w1, w2 []float64
	for i := 0; i < n; i++ {
		t1 = append(t1, []any{i, i % 4})
		w1 = append(w1, float64(i))
		t2 = append(t2, []any{i % 4, i})
		w2 = append(w2, float64(i)/2)
	}
	resp, body := doJSON(t, "POST", base+"/v1/datasets/b1", map[string]any{"tuples": t1, "weights": w1})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", base+"/v1/datasets/b2", map[string]any{"tuples": t2, "weights": w2})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", base+"/v1/queries/big", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "b1", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "b2", "vars": []string{"B", "C"}},
		},
	})
	mustStatus(t, resp, body, 200)
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)
	streamTopK(t, ts.URL+"/v1/query/paths/topk?k=2")
	streamTopK(t, ts.URL+"/v1/query/paths/topk?k=2")
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Datasets != 2 || st.Queries != 1 {
		t.Fatalf("datasets=%d queries=%d, want 2/1", st.Datasets, st.Queries)
	}
	if st.Registry.Misses != 1 || st.Registry.Hits != 1 || st.Registry.Size != 1 {
		t.Fatalf("registry stats %+v, want 1 miss, 1 hit, size 1", st.Registry)
	}
	if len(st.Plans) != 1 {
		t.Fatalf("plans = %+v, want 1", st.Plans)
	}
	p := st.Plans[0].Plan
	if p.Kind != "acyclic" || p.Solutions != 5 || len(p.Rankings) != 1 || p.Rankings[0].Ranking != "sum" {
		t.Fatalf("plan stats = %+v", p)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerBigPath(t, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/query/big/topk?k=2000000&timeout=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	// Keep draining in the background so the handler is enumerating (not
	// write-blocked) when shutdown cancels the base context.
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, br)
		close(drained)
	}()
	// Shutdown with an immediate deadline: the in-flight stream is cut
	// via the base context, and Shutdown still waits for the handler.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Shutdown(ctx)
	<-drained
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Shutdown took %v", d)
	}
	// New streams are refused.
	resp2, err := http.Get(ts.URL + "/v1/query/big/topk?k=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown topk status %d, want 503", resp2.StatusCode)
	}
}

func TestDatasetValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		body map[string]any
	}{
		{"empty", map[string]any{"tuples": []any{}}},
		{"ragged", map[string]any{"tuples": []any{[]any{1, 2}, []any{3}}}},
		{"floats", map[string]any{"tuples": []any{[]any{1.5, 2}}}},
		{"weightlen", map[string]any{"tuples": []any{[]any{1, 2}}, "weights": []float64{1, 2}}},
	} {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/bad", tc.body)
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status %d (body %v), want 400", tc.name, resp.StatusCode, body)
		}
	}
	// Bad query: repeated variable within an atom.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/ok", map[string]any{"tuples": []any{[]any{1, 2}}})
	mustStatus(t, resp, body, 200)
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/queries/bad", map[string]any{
		"atoms": []any{map[string]any{"dataset": "ok", "vars": []string{"A", "A"}}},
	})
	if resp.StatusCode != 400 {
		t.Fatalf("repeated-var query: status %d, want 400", resp.StatusCode)
	}
	// Arity mismatch.
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/queries/bad2", map[string]any{
		"atoms": []any{map[string]any{"dataset": "ok", "vars": []string{"A", "B", "C"}}},
	})
	if resp.StatusCode != 400 {
		t.Fatalf("arity-mismatch query: status %d, want 400", resp.StatusCode)
	}
}

func TestCyclicQueryOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Triangle over one edge relation used three times.
	edges := []any{
		[]any{1, 2}, []any{2, 3}, []any{3, 1},
		[]any{2, 1}, []any{3, 2}, []any{1, 3},
	}
	w := []float64{1, 2, 3, 4, 5, 6}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/e", map[string]any{"tuples": edges, "weights": w})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", ts.URL+"/v1/queries/tri", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "e", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "e", "vars": []string{"B", "C"}},
			map[string]any{"dataset": "e", "vars": []string{"C", "A"}},
		},
	})
	mustStatus(t, resp, body, 200)
	_, lines := streamTopK(t, ts.URL+"/v1/query/tri/topk?k=2")
	if len(lines) != 3 {
		t.Fatalf("triangle returned %d lines: %+v", len(lines), lines)
	}
	if *lines[0].Weight != 6 { // 1+2+3 both ways round the lightest triangle
		t.Fatalf("lightest triangle weight = %v, want 6", *lines[0].Weight)
	}
}
