package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestSmokeGolden mirrors the CI smoke job byte for byte: it posts
// testdata/smoke_edges.csv and testdata/smoke_query.json against a
// fresh server and asserts the streamed top-k equals
// testdata/smoke_topk.golden — the same three files the workflow drives
// through the compiled binary with curl, so the golden can never drift
// from what CI checks — and then, as the job does, PATCHes one row onto
// the dataset and reads the warm plan again.
func TestSmokeGolden(t *testing.T) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	csvBody, err := os.Open("testdata/smoke_edges.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer csvBody.Close()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/datasets/edges?weights=true", csvBody)
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("dataset upload: status %d", resp.StatusCode)
	}

	queryBody, err := os.Open("testdata/smoke_query.json")
	if err != nil {
		t.Fatal(err)
	}
	defer queryBody.Close()
	req, _ = http.NewRequest("POST", ts.URL+"/v1/queries/hops2", queryBody)
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query registration: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/query/hops2/topk?k=5&agg=sum&variant=Lazy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The golden's tuple order follows the query's output schema (the
	// join-tree preorder, not atom declaration order).
	if attrs := resp.Header.Get("X-Out-Attrs"); attrs != "B,C,A" {
		t.Fatalf("X-Out-Attrs = %q, want B,C,A", attrs)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/smoke_topk.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("top-k stream diverges from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A CSV append advances the warm plan in place: the PATCH reports one
	// patched plan and no statistics, and the next request is a hit that
	// streams the appended row's answer.
	req, _ = http.NewRequest("PATCH", ts.URL+"/v1/datasets/edges?mode=append", strings.NewReader("src,dst,w\n4,5,0.25\n"))
	req.Header.Set("Content-Type", "text/csv")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(patched), `"plans_patched":1`) || strings.Contains(string(patched), `"stats`) {
		t.Fatalf("PATCH response %s: want plans_patched 1 and no statistics", patched)
	}
	resp, err = http.Get(ts.URL + "/v1/query/hops2/topk?k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Plan-Cache"); got != "hit" {
		t.Fatalf("post-PATCH X-Plan-Cache = %q, want hit", got)
	}
	if got, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if line := `{"tuple":[4,5,3],"weight":1.75}`; !strings.Contains(string(got), line) {
		t.Fatalf("post-PATCH stream lacks %s:\n%s", line, got)
	}
}
