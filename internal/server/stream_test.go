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
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMidStreamDisconnectReleasesEverything is the satellite coverage
// for mid-stream cancellation: a client that disconnects during NDJSON
// streaming must release the iterator (via the watchdog's concurrent
// Close), free the admission slot, and leave no goroutines behind.
func TestMidStreamDisconnectReleasesEverything(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	registerBigPath(t, ts.URL)

	// Warm the plan so the disconnect exercises enumeration, and settle
	// the goroutine baseline after the HTTP keep-alive machinery spins
	// up.
	resp, err := http.Get(ts.URL + "/v1/query/big/topk?k=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	waitFor(t, "baseline idle", func() bool { return s.met.inflight.Value() == 0 })
	base := runtime.NumGoroutine()

	for trial := 0; trial < 5; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/query/big/topk?k=2000000&timeout=30s", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		// Read a couple of lines so the disconnect is genuinely
		// mid-stream, then hang up.
		for i := 0; i < 2; i++ {
			if _, err := br.ReadString('\n'); err != nil {
				t.Fatalf("trial %d: stream died before disconnect: %v", trial, err)
			}
		}
		cancel()
		resp.Body.Close()

		// The admission slot must come back: with MaxInflight=1 the next
		// request only succeeds once the disconnected stream fully
		// released it.
		waitFor(t, "admission slot release", func() bool {
			r2, err := http.Get(ts.URL + "/v1/query/big/topk?k=1")
			if err != nil {
				return false
			}
			defer r2.Body.Close()
			io.Copy(io.Discard, r2.Body)
			return r2.StatusCode == http.StatusOK
		})
	}

	// No goroutine leaks: the watchdogs, handlers, and iterator
	// plumbing of all five aborted streams must be gone. Allow a little
	// slack for idle HTTP keep-alive conns.
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+3
	})
}

// TestMidStreamDeadlineTrailer drives a slow consumer into the request
// deadline and checks the stream ends with an explanatory error trailer
// rather than a silent cut.
func TestMidStreamDeadlineTrailer(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	registerBigPath(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/query/big/topk?k=2000000&timeout=250ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "deadline") {
		t.Fatalf("final line %q does not mention the deadline (total %d lines)", last, len(lines))
	}
	waitFor(t, "inflight to drain", func() bool { return s.met.inflight.Value() == 0 })
}

// flushRecorder is a ResponseWriter that keeps the body and, at every
// Flush, the body length the flush followed.
type flushRecorder struct {
	h       http.Header
	body    bytes.Buffer
	flushes []int
}

func (r *flushRecorder) Header() http.Header         { return r.h }
func (r *flushRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *flushRecorder) WriteHeader(int)             {}
func (r *flushRecorder) Flush()                      { r.flushes = append(r.flushes, r.body.Len()) }

// get serves one GET through s.Handler() into r, keeping r's buffers.
func (r *flushRecorder) get(s *Server, url string) {
	clear(r.h)
	r.body.Reset()
	r.flushes = r.flushes[:0]
	s.Handler().ServeHTTP(r, httptest.NewRequest("GET", url, nil))
}

// newBigPathServer returns a server reading time from now, holding
// registerBigPath's datasets and query with its sum plan warm.
func newBigPathServer(t *testing.T, now func() time.Time) *Server {
	t.Helper()
	s := New(Config{})
	s.now = now // set before the listener starts any goroutine reading it
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	registerBigPath(t, ts.URL)
	(&flushRecorder{h: http.Header{}}).get(s, "/v1/query/big/topk?k=1")
	return s
}

// TestFlushRule pins the delivery rule by counting flushes, not by
// timing them. The first flush follows exactly one line and the last
// follows the trailer. With the clock frozen only the byte rule acts: a
// warm k=1000 read flushes once per ≥ 4 KiB of lines in between, at
// most ⌈body/4096⌉ + 2 times. With a clock that moves 2 ms per reading
// the time rule acts on every line, so each is flushed before the next
// one is produced.
func TestFlushRule(t *testing.T) {
	rec := &flushRecorder{h: http.Header{}}
	// check returns the body lengths each flush followed and each line
	// ends at.
	check := func(label string, k int) (flushes, ends []int) {
		t.Helper()
		body := rec.body.Bytes()
		for i, c := range body {
			if c == '\n' {
				ends = append(ends, i+1)
			}
		}
		trailer := fmt.Sprintf("{\"done\":true,\"count\":%d}\n", k)
		if len(ends) != k+1 || !bytes.HasSuffix(body, []byte(trailer)) {
			t.Fatalf("%s: %d lines ending %q, want %d results and the trailer %q", label, len(ends), body[max(0, len(body)-40):], k, trailer)
		}
		f := rec.flushes
		if len(f) < 2 || f[0] != ends[0] || f[len(f)-1] != len(body) {
			t.Fatalf("%s: flushes after bytes %v, want the first after line 1 (%d) and the last after the trailer (%d)", label, f, ends[0], len(body))
		}
		return f, ends
	}

	s := newBigPathServer(t, (&fakeClock{at: time.Unix(0, 0)}).now)
	rec.get(s, "/v1/query/big/topk?k=1000")
	f, _ := check("frozen clock", 1000)
	t.Logf("frozen clock: %d flushes for a %d-byte k=1000 body", len(f), rec.body.Len())
	if n, bound := len(f), (rec.body.Len()+flushBytes-1)/flushBytes+2; n > bound {
		t.Fatalf("frozen clock: %d flushes for a %d-byte body, want at most %d", n, rec.body.Len(), bound)
	}
	for i := 1; i < len(f)-1; i++ {
		if f[i]-f[i-1] < flushBytes {
			t.Fatalf("frozen clock: flush %d sent %d bytes, under %d: %v", i, f[i]-f[i-1], flushBytes, f)
		}
	}

	s = newBigPathServer(t, (&fakeClock{at: time.Unix(0, 0), step: 2 * time.Millisecond}).now)
	rec.get(s, "/v1/query/big/topk?k=50")
	f, ends := check("2 ms clock", 50)
	if !slices.Equal(f, ends) {
		t.Fatalf("2 ms clock: flushes after bytes %v, want one after every line %v", f, ends)
	}
}

// TestRowPathAllocs: what serving adds per streamed row on top of the
// engine — a warm k=1000 call minus a warm k=10 call, over the 990 rows
// between them, through Handler() and through the very handle it
// serves — stays within 0.1 allocations.
func TestRowPathAllocs(t *testing.T) {
	s := newBigPathServer(t, time.Now)
	rec := &flushRecorder{h: http.Header{}}
	_, e, ok := s.resolveQuery(rec, "big")
	if !ok {
		t.Fatal("query big does not resolve")
	}
	served := func(k int) func() {
		url := fmt.Sprintf("/v1/query/big/topk?k=%d", k)
		return func() { rec.get(s, url) }
	}
	direct := func(k int) func() {
		return func() {
			it, err := e.p.Run(repro.WithRanking(repro.SumCost), repro.WithVariant(repro.Lazy), repro.WithK(k))
			if err != nil {
				t.Fatal(err)
			}
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
			it.Close()
		}
	}
	perRow := func(run func(k int) func()) float64 {
		return (testing.AllocsPerRun(10, run(1000)) - testing.AllocsPerRun(10, run(10))) / 990
	}
	server, facade := perRow(served), perRow(direct)
	t.Logf("allocations per row: %.3f through Handler(), %.3f through the facade", server, facade)
	if server > facade+0.1 {
		t.Fatalf("%.2f allocations per row through Handler(), %.2f through the facade: serving adds %.2f per row", server, facade, server-facade)
	}
}

// TestNonFiniteWeightEndsStream: a result whose sum overflows to +Inf
// has no JSON form. /topk ends its stream with an error trailer that
// names it, after the rows before it, rather than cutting the stream;
// under max the same row stays finite and streams.
func TestNonFiniteWeightEndsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tuples := range map[string][]any{
		"o1": {[]any{1, 10}, []any{2, 11}},
		"o2": {[]any{10, 100}, []any{11, 101}},
	} {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/"+name, map[string]any{"tuples": tuples, "weights": []float64{1e308, 1}})
		mustStatus(t, resp, body, 200)
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/queries/over", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "o1", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "o2", "vars": []string{"B", "C"}},
		},
	})
	mustStatus(t, resp, body, 200)
	const refused = "result 2: weight +Inf has no JSON encoding"

	_, lines := streamTopK(t, ts.URL+"/v1/query/over/topk?k=10&agg=sum")
	if len(lines) != 2 || lines[0].Weight == nil || *lines[0].Weight != 2 {
		t.Fatalf("sum: %+v, want the finite row and a trailer", lines)
	}
	if tr := lines[1]; tr.Done || tr.Count == nil || *tr.Count != 1 || tr.Error != refused {
		t.Fatalf("sum trailer %+v, want count 1 and error %q", tr, refused)
	}

	_, lines = streamTopK(t, ts.URL+"/v1/query/over/topk?k=10&agg=max")
	if len(lines) != 3 || *lines[0].Weight != 1 || *lines[1].Weight != 1e308 || !lines[2].Done || *lines[2].Count != 2 {
		t.Fatalf("max: %+v, want both rows and a done trailer", lines)
	}
}

// TestOppositeInfinitiesRefusedUnderSum: +Inf in one atom beside −Inf
// in another sums to NaN, so /topk?agg=sum answers 400 before any row,
// naming the two rows, like product over a non-positive weight.
func TestOppositeInfinitiesRefusedUnderSum(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, csv := range map[string]string{
		"ir": "a,b,w\n1,1,+Inf\n2,1,5\n3,2,1\n4,2,3\n",
		"is": "b,c,w\n1,7,-Inf\n1,8,2\n2,9,4\n",
	} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/datasets/"+name, strings.NewReader(csv))
		req.Header.Set("Content-Type", "text/csv")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("CSV upload of %s: status %d", name, resp.StatusCode)
		}
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/queries/inf", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "ir", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "is", "vars": []string{"B", "C"}},
		},
	})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "GET", ts.URL+"/v1/query/inf/topk?agg=sum", nil)
	mustStatus(t, resp, body, 400)
	if code := errCode(t, body); code != errInvalidArgument {
		t.Fatalf("agg=sum over opposite infinities: code %q", code)
	}
	const want = "cannot add +Inf and -Inf: relation is#1 row 0 has weight -Inf and relation ir#0 row 0 has weight +Inf"
	if msg := body["error"].(map[string]any)["message"].(string); !strings.Contains(msg, want) {
		t.Fatalf("agg=sum over opposite infinities: message %q, want one containing %q", msg, want)
	}
}

// TestQuotedStringsUnderConcurrentPatches: readers take snapshots of
// the quoted dictionary while a writer keeps PATCHing rows with new
// strings into the dataset they read, so the table grows under them.
// Every cell must come back as a string the writer or the upload sent;
// -race checks the sharing.
func TestQuotedStringsUnderConcurrentPatches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/names", map[string]any{
		"tuples": []any{[]any{"s-a", "s<b>"}, []any{"s\"c", "s d"}},
	})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", ts.URL+"/v1/queries/sq", map[string]any{
		"atoms": []any{map[string]any{"dataset": "names", "vars": []string{"A", "B"}}},
	})
	mustStatus(t, resp, body, 200)

	const rounds = 20
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(ts.URL + "/v1/query/sq/topk?k=1000")
				if err != nil {
					t.Error(err)
					return
				}
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					var l topkLine
					if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
						t.Errorf("bad line %q: %v", sc.Text(), err)
					}
					for _, c := range l.Tuple {
						if s, ok := c.(string); !ok || !strings.HasPrefix(s, "s") {
							t.Errorf("cell %#v in %q is not an uploaded string", c, sc.Text())
						}
					}
				}
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		b, _ := json.Marshal(map[string]any{"append": []any{[]any{fmt.Sprintf("s%d", i), fmt.Sprintf("s&%d", i)}}})
		req, _ := http.NewRequest("PATCH", ts.URL+"/v1/datasets/names", bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("PATCH %d: status %d", i, resp.StatusCode)
		}
	}
	wg.Wait()
}

// TestConcurrentStreamsOfOneQuery: two clients streaming one 4-cycle
// query at once share its warm plan, but each Run emits its rows into
// its own buffer while its handler encodes them. Both bodies must equal
// the body one client reads alone.
func TestConcurrentStreamsOfOneQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := workload.RandomGraph(16, 120, workload.UniformWeights(), 3)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/e", map[string]any{"tuples": g.Edges.Tuples, "weights": g.Edges.Weights})
	mustStatus(t, resp, body, 200)
	resp, body = doJSON(t, "POST", ts.URL+"/v1/queries/c4", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "e", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "e", "vars": []string{"B", "C"}},
			map[string]any{"dataset": "e", "vars": []string{"C", "D"}},
			map[string]any{"dataset": "e", "vars": []string{"D", "A"}},
		},
	})
	mustStatus(t, resp, body, 200)
	url := ts.URL + "/v1/query/c4/topk?k=1000"
	get := func() ([]byte, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	alone, err := get()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(alone, []byte("\n")); n != 1001 {
		t.Fatalf("one client read %d lines, want 1000 rows and the trailer", n)
	}
	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	errs := make([]error, 2)
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i], errs[i] = get()
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(b, alone) {
			t.Errorf("client %d read a body of %d bytes that differs from the single client's %d", i, len(b), len(alone))
		}
	}
}
