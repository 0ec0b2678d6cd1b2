package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ranking"
)

// scrape fetches /metrics and returns the body, failing on transport or
// status errors.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var sampleLineRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// TestMetricsEndpoint drives real traffic and checks that /metrics is
// well-formed exposition text covering the request, latency, plan-cache,
// delta, and runtime series the dashboard expects.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	// Cold then warm topk, a topk under a second ranking, and a dataset
	// delta.
	for i := 0; i < 2; i++ {
		resp, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=3")
		if resp.StatusCode != 200 || len(lines) != 4 {
			t.Fatalf("topk run %d: status %d, %d lines", i, resp.StatusCode, len(lines))
		}
	}
	if resp, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=2&agg=max"); resp.StatusCode != 200 || len(lines) != 3 {
		t.Fatalf("topk under max: status %d, %d lines", resp.StatusCode, len(lines))
	}
	resp, body := doJSON(t, "PATCH", ts.URL+"/v1/datasets/r1", map[string]any{
		"append": []any{[]any{3, 10}}, "append_weights": []float64{9},
	})
	mustStatus(t, resp, body, 200)

	text := scrape(t, ts.URL)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLineRe.MatchString(line) {
			t.Fatalf("malformed exposition line %d: %q", ln+1, line)
		}
	}
	for _, want := range []string{
		`anykd_query_requests_total `,
		`anykd_http_requests_total{endpoint="topk"} 3`,
		`anykd_http_responses_total{endpoint="topk",class="2xx"} 3`,
		`anykd_http_request_duration_seconds_bucket{endpoint="topk",le="+Inf"} 3`,
		`anykd_ttf_seconds_bucket{agg="sum",le="+Inf"} 2`,
		`anykd_ttk_seconds_count{agg="sum"} 2`,
		`anykd_ttf_seconds_bucket{agg="max",le="+Inf"} 1`,
		`anykd_ttk_seconds_count{agg="max"} 1`,
		`anykd_prepare_seconds_count{cache="hit"} `,
		`anykd_prepare_seconds_count{cache="miss"} `,
		`anykd_plan_cache_hits_total `,
		`anykd_plan_cache_misses_total `,
		`anykd_plan_cache_size `,
		`anykd_rows_streamed_total `,
		`anykd_dataset_patches_total 1`,
		`anykd_plans_patched_total 1`,
		`anykd_inflight_enumerations 0`,
		`go_goroutines `,
		`go_heap_alloc_bytes `,
		`go_gc_pause_seconds_total `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// getTrace fetches one recorded trace by id.
func getTrace(t *testing.T, base, id string) *obs.TraceJSON {
	t.Helper()
	resp, err := http.Get(base + "/v1/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace %s: status %d", id, resp.StatusCode)
	}
	var tj obs.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		t.Fatal(err)
	}
	return &tj
}

// TestTraceEndpointAcyclic checks the X-Trace-Id round trip: a cold
// /topk records a span tree reachable at /v1/traces/{id} whose phases
// nest within the request wall time.
func TestTraceEndpointAcyclic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/query/paths/topk?k=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	wall := time.Since(start)
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id header on /topk response")
	}

	tj := getTrace(t, ts.URL, id)
	if tj.TraceID != id {
		t.Fatalf("trace id %q, want %q", tj.TraceID, id)
	}
	names := map[string]int{}
	var walk func([]*obs.SpanJSON)
	walk = func(spans []*obs.SpanJSON) {
		for _, sp := range spans {
			names[sp.Name]++
			if sp.StartNs < 0 || sp.StartNs+sp.DurationNs > tj.DurationNs {
				t.Errorf("span %s [%d,+%d] exceeds trace duration %d", sp.Name, sp.StartNs, sp.DurationNs, tj.DurationNs)
			}
			walk(sp.Children)
		}
	}
	walk(tj.Spans)
	for _, want := range []string{"compile", "plan-build", "reduce", "prepare", "instantiate", "enumerate"} {
		if names[want] == 0 {
			t.Errorf("cold acyclic /topk trace missing span %q (got %v)", want, names)
		}
	}
	// The recorded trace must fit inside the observed request wall time
	// (generous slack for the Finish timestamp landing after the body).
	if got := time.Duration(tj.DurationNs); got > wall+time.Second {
		t.Errorf("trace duration %v exceeds request wall time %v", got, wall)
	}

	// Unknown ids are a 404 with the standard envelope.
	r404, err := http.Get(ts.URL + "/v1/traces/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	defer r404.Body.Close()
	if r404.StatusCode != 404 {
		t.Fatalf("unknown trace id: status %d", r404.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(r404.Body).Decode(&eb); err != nil || eb.Error.Code != errNotFound {
		t.Fatalf("unknown trace envelope = %+v (err %v)", eb, err)
	}
}

// TestTraceEndpointCyclic is the cyclic-shape counterpart: a triangle
// query's trace shows the generic-join materialisation with bag labels.
func TestTraceEndpointCyclic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var tuples []any
	var weights []float64
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				tuples = append(tuples, []any{a, b})
				weights = append(weights, float64(a+b))
			}
		}
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/e", map[string]any{"tuples": tuples, "weights": weights})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", ts.URL+"/v1/queries/tri", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "e", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "e", "vars": []string{"B", "C"}},
			map[string]any{"dataset": "e", "vars": []string{"C", "A"}},
		},
	})
	mustStatus(t, resp, body, 200)

	r, err := http.Get(ts.URL + "/v1/query/tri/topk?k=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	tj := getTrace(t, ts.URL, r.Header.Get("X-Trace-Id"))

	var mat *obs.SpanJSON
	names := map[string]int{}
	var walk func([]*obs.SpanJSON)
	walk = func(spans []*obs.SpanJSON) {
		for _, sp := range spans {
			names[sp.Name]++
			if sp.Name == "materialize" && mat == nil {
				mat = sp
			}
			walk(sp.Children)
		}
	}
	walk(tj.Spans)
	for _, want := range []string{"compile", "prepare", "materialize", "generic-join", "enumerate"} {
		if names[want] == 0 {
			t.Errorf("cyclic /topk trace missing span %q (got %v)", want, names)
		}
	}
	if mat != nil && mat.Attrs["bag"] == "" {
		t.Errorf("materialize span has no bag label: %+v", mat.Attrs)
	}
}

// TestAccessLogAndRequestID checks the structured access log line and
// the X-Request-ID round trip, including the error envelope's
// request_id field.
func TestAccessLogAndRequestID(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &buf})
	registerPath(t, ts.URL)

	req, err := http.NewRequest("GET", ts.URL+"/v1/query/paths/topk?k=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-chose-this.1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chose-this.1" {
		t.Fatalf("X-Request-ID echo = %q", got)
	}

	// An error response (unknown query) generates an id and echoes it in
	// the envelope.
	eresp, err := http.Get(ts.URL + "/v1/query/nosuch/topk")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(eresp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eresp.StatusCode != 404 || eb.Error.RequestID == "" {
		t.Fatalf("error envelope missing request_id: status %d, %+v", eresp.StatusCode, eb)
	}
	if got := eresp.Header.Get("X-Request-ID"); got != eb.Error.RequestID {
		t.Fatalf("envelope request_id %q != header %q", eb.Error.RequestID, got)
	}

	var found bool
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("access log line %q not JSON: %v", sc.Text(), err)
		}
		if line["path"] != "/v1/query/paths/topk" {
			continue
		}
		found = true
		if line["method"] != "GET" || line["status"] != float64(200) {
			t.Errorf("access line method/status wrong: %v", line)
		}
		if line["request_id"] != "client-chose-this.1" {
			t.Errorf("access line request_id = %v", line["request_id"])
		}
		if line["trace_id"] == "" || line["trace_id"] == nil {
			t.Errorf("access line missing trace_id: %v", line)
		}
		if line["plan_cache"] != "miss" {
			t.Errorf("access line plan_cache = %v, want miss", line["plan_cache"])
		}
		if b, ok := line["bytes"].(float64); !ok || b <= 0 {
			t.Errorf("access line bytes = %v", line["bytes"])
		}
		if d, ok := line["duration_ms"].(float64); !ok || d < 0 {
			t.Errorf("access line duration_ms = %v", line["duration_ms"])
		}
	}
	if !found {
		t.Fatalf("no access log line for the topk request; log:\n%s", buf.String())
	}
}

// syncBuffer is a bytes.Buffer safe for concurrent handler writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog: with a zero threshold every request is "slow", so
// the warn line with the trace id must appear.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	registerPath(t, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/query/paths/topk?k=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var found bool
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line["msg"] == "slow-query" && line["path"] == "/v1/query/paths/topk" {
			found = true
			if line["trace_id"] == "" || line["trace_id"] == nil {
				t.Errorf("slow-query line missing trace_id: %v", line)
			}
		}
	}
	if !found {
		t.Fatalf("no slow-query line; log:\n%s", buf.String())
	}
}

// fakeClock is a deterministic monotonic clock: every reading advances
// by step.
type fakeClock struct {
	mu   sync.Mutex
	at   time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = c.at.Add(c.step)
	return c.at
}

// TestTTFTTKFakeClock pins the TTF/TT(k) histogram semantics with a
// stepped fake clock: TTF is observed once per streaming request, TT(k)
// only when the stream actually reaches k results, and both measure
// forward from request start (TTK ≥ TTF).
func TestTTFTTKFakeClock(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	clk := &fakeClock{at: time.Unix(1000, 0), step: time.Second}
	s.now = clk.now
	registerPath(t, ts.URL)

	// k=3 ≤ 5 results: both TTF and TTK observe.
	resp, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=3")
	if resp.StatusCode != 200 || len(lines) != 4 {
		t.Fatalf("status %d, %d lines", resp.StatusCode, len(lines))
	}
	ttf, ttk := s.met.ttf[ranking.SumCost], s.met.ttk[ranking.SumCost]
	if ttf.Count() != 1 || ttk.Count() != 1 {
		t.Fatalf("ttf count %d, ttk count %d, want 1,1", ttf.Count(), ttk.Count())
	}
	// The stepped clock makes the observations exact multiples of the
	// step: TTF spans start→first result, TTK start→3rd result, so both
	// are positive whole seconds with TTK strictly later.
	if ttf.Sum() <= 0 || ttk.Sum() <= ttf.Sum() {
		t.Fatalf("ttf sum %v, ttk sum %v: want 0 < ttf < ttk", ttf.Sum(), ttk.Sum())
	}
	if ttf.Sum() != float64(int(ttf.Sum())) || ttk.Sum() != float64(int(ttk.Sum())) {
		t.Fatalf("observations not whole fake-clock steps: ttf %v ttk %v", ttf.Sum(), ttk.Sum())
	}

	// k=10 > 5 results: the stream exhausts before the k'th result, so
	// TTK must NOT observe while TTF does.
	resp, lines = streamTopK(t, ts.URL+"/v1/query/paths/topk?k=10")
	if resp.StatusCode != 200 || len(lines) != 6 {
		t.Fatalf("k=10: status %d, %d lines", resp.StatusCode, len(lines))
	}
	if ttf.Count() != 2 {
		t.Fatalf("ttf count %d after short stream, want 2", ttf.Count())
	}
	if ttk.Count() != 1 {
		t.Fatalf("ttk count %d after short stream, want still 1", ttk.Count())
	}
}

// TestStatsCountersRace hammers the obs-backed stats counters from
// every direction at once — topk streams, /v1/stats reads, /metrics
// scrapes — so `go test -race` checks the whole read/write surface.
func TestStatsCountersRace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerPath(t, ts.URL)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/v1/query/paths/topk?k=2")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	// The query-request counter agrees between /v1/stats and /metrics.
	_, stats := doJSON(t, "GET", ts.URL+"/v1/stats", nil)
	reqs, _ := stats["requests"].(float64)
	if reqs < 40 {
		t.Fatalf("stats requests = %v, want >= 40", reqs)
	}
	if !strings.Contains(scrape(t, ts.URL), fmt.Sprintf("anykd_query_requests_total %d", int(reqs))) {
		t.Errorf("/metrics and /v1/stats disagree on query requests (%v)", reqs)
	}
}

// TestAdminHandlerAndGoroutineLeak mounts the admin mux (pprof +
// metrics), exercises it alongside query traffic, and asserts the
// whole stack winds down without leaking goroutines.
func TestAdminHandlerAndGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	admin := httptest.NewServer(s.AdminHandler())
	registerPath(t, ts.URL)

	for _, path := range []string{"/debug/pprof/cmdline", "/metrics"} {
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("admin %s: status %d", path, resp.StatusCode)
		}
	}
	if !strings.Contains(func() string {
		resp, err := http.Get(admin.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}(), "go_goroutines") {
		t.Error("admin /metrics missing runtime series")
	}
	resp, err := http.Get(ts.URL + "/v1/query/paths/topk?k=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ts.Close()
	admin.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to drain after shutdown", func() bool {
		return runtime.NumGoroutine() <= base+3
	})
}

// TestDisableObservability: the baseline mode serves identical results
// with no trace header and no access log.
func TestDisableObservability(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{DisableObservability: true, AccessLog: &buf})
	registerPath(t, ts.URL)
	resp, lines := streamTopK(t, ts.URL+"/v1/query/paths/topk?k=3")
	if resp.StatusCode != 200 || len(lines) != 4 {
		t.Fatalf("status %d, %d lines", resp.StatusCode, len(lines))
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Errorf("X-Trace-Id present in disabled mode: %q", got)
	}
	wantWeights := []float64{2, 3, 5}
	for i, w := range wantWeights {
		if lines[i].Weight == nil || *lines[i].Weight != w {
			t.Fatalf("line %d weight = %v, want %v (results must not depend on instrumentation)", i, lines[i].Weight, w)
		}
	}
	if buf.String() != "" {
		t.Errorf("access log written in disabled mode: %q", buf.String())
	}
}
