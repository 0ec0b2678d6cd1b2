package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's view of the benchmark, /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func toJSONMetrics(decls []metricDecl, bounds bool) []jsonMetric {
	out := make([]jsonMetric, len(decls))
	for i, d := range decls {
		out[i] = jsonMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if bounds {
			b := d.Bound
			out[i].Bound = &b
		}
	}
	return out
}

// TestDeclarationsMatchBenchmarkJSON pins /BENCHMARK.json to decls.go:
// same workloads with the same reasons, same metrics with the same
// units, directions and bounds, within the driver's limits. Run with
// BENCH_WRITE_JSON=1 to regenerate the file from the declarations.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   toJSONMetrics(endToEnd, true),
		PerLayer:   toJSONMetrics(perLayer, false),
	}
	if os.Getenv("BENCH_WRITE_JSON") != "" {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := declared(t)
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("BENCHMARK.json and decls.go disagree\n json: %s\n go:   %s", g, w)
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the cap is 128", n)
	}
	if n := len(endToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, the cap is 16", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s (%s): name or unit too long", d.Name, d.Unit)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestCheckerFlagsSwapAndDrop feeds the oracle's checker a correct
// answer, one with two rows swapped, and one with a row dropped.
func TestCheckerFlagsSwapAndDrop(t *testing.T) {
	f := gen{seed: 7, div: 20}.path4()
	o := solveOracle(f, true)
	if o.count < 20 {
		t.Fatalf("fixture too small: %d results", o.count)
	}
	for _, agg := range []string{aggSum, aggMax} {
		good := append([]float64(nil), o.top(agg)...)
		if err := o.verify(agg, good, o.count, 0, true); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", agg, err)
		}
		// Find two neighbours with different weights to swap.
		i := 1
		for i < len(good) && good[i] == good[i-1] {
			i++
		}
		swapped := append([]float64(nil), good...)
		swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
		if err := o.verify(agg, swapped, o.count, 0, true); err == nil {
			t.Errorf("%s: swapped pair at %d not flagged", agg, i)
		}
		dropped := append(append([]float64(nil), good[:i]...), good[i+1:]...)
		if err := o.verify(agg, dropped, o.count-1, 0, true); err == nil {
			t.Errorf("%s: dropped row at %d not flagged", agg, i)
		}
		k := 10
		if err := o.verify(agg, good[:k], int64(k), k, true); err != nil {
			t.Errorf("%s: correct top-%d rejected: %v", agg, k, err)
		}
		if err := o.verify(agg, good[1:k+1], int64(k), k, true); err == nil {
			t.Errorf("%s: top-%d missing its first row not flagged", agg, k)
		}
	}
}

// TestStarOracleMatchesEnumeration checks the closed-form star oracle
// against the backtracking one on a star small enough to enumerate.
func TestStarOracleMatchesEnumeration(t *testing.T) {
	f := gen{seed: 3, div: 40}.star4()
	want := solveOracle(f, false)
	got := solveStarOracle(f)
	if got.count != want.count {
		t.Fatalf("count %d, enumeration says %d", got.count, want.count)
	}
	if err := want.verify(aggSum, got.sum, got.count, 0, true); err != nil {
		t.Fatalf("closed form disagrees with enumeration: %v", err)
	}
}

func names(m map[string]summary) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func declNames(decls []metricDecl) []string {
	out := make([]string, len(decls))
	for i, d := range decls {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs all four workloads and the traced replay on shrunken
// fixtures with a short window: no operation may fail, the metrics
// emitted must be exactly the ones declared, the last line must parse,
// and the layer replay must account for the facade's time.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	decl := declared(t)
	if got, want := len(decl.Workloads), len(workloads); got != want {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in decls.go", got, want)
	}
	for _, w := range decl.Workloads {
		c := config{workload: w.Name, seed: 5, seconds: 0.3, div: smokeDiv}
		o, err := run(ctx, c)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, o.Attempted, o.Failed, o.Errors)
		}
		if got, want := names(o.E2E), declNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics emitted %v, declared %v", w.Name, got, want)
		}
		var line struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(o.lastLine(), &line); err != nil {
			t.Fatalf("%s: last line: %v", w.Name, err)
		}
		if !line.Correct || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: last line correct=%v with %d metrics", w.Name, line.Correct, len(line.Metrics))
		}
		for n, m := range line.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, n, m.Value)
			}
		}
	}

	c := config{workload: "cold_prepare", seed: 5, seconds: 0.15, div: smokeDiv, trace: true}
	o, err := run(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 || o.Attempted == 0 {
		t.Errorf("traced: attempted %d, failed %d: %v", o.Attempted, o.Failed, o.Errors)
	}
	if got, want := names(o.Layer), declNames(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics emitted and declared differ:\n emitted %v\n declared %v", got, want)
	}
	if len(o.Spans) == 0 {
		t.Error("traced run kept no spans")
	}
	// At full size the replay lands within 0.9–1.1 of the facade (see
	// README); on fixtures this small a single scheduler hiccup is a
	// tenth of the measurement, so the smoke test only catches a replay
	// that has lost or doubled a step.
	for _, n := range []string{"repro.layer_coverage.acyclic", "repro.layer_coverage.cyclic"} {
		if v := o.Layer[n].Median; v < 0.6 || v > 1.6 {
			t.Errorf("%s = %.3f: the layer replay no longer accounts for the facade's time", n, v)
		}
	}
}

// smokeDiv shrinks every fixture for TestSmoke.
const smokeDiv = 10

func doc(workload string, seed uint64, e2e, layer map[string]summary) *output {
	o := newOutput(config{workload: workload, seed: seed, trace: layer != nil})
	o.Attempted = 100
	for k, v := range e2e {
		o.E2E[k] = v
	}
	for k, v := range layer {
		o.Layer[k] = v
	}
	return o
}

func sideOf(docs ...*output) *side {
	s := &side{docs: map[runKey][]*output{}}
	for _, d := range docs {
		s.add(d)
	}
	return s
}

// TestCompareVerdicts builds small documents by hand and checks each
// verdict -compare can give, and its exit code.
func TestCompareVerdicts(t *testing.T) {
	tight := summary{N: 20, Median: 100, Q1: 99, Q3: 101}
	loose := summary{N: 20, Median: 100, Q1: 80, Q3: 120}
	a := sideOf(
		doc("enum_deep", 1, map[string]summary{"ttk_ms": tight, "ttl_ms": tight, "ttf_ms": loose, "qps": tight}, nil),
		doc("enum_deep", 1, nil, map[string]summary{"wcoj.seeks.triangle": point(1000, 1)}),
	)
	slower := tight
	slower.Median = 130
	b := sideOf(
		doc("enum_deep", 1, map[string]summary{"ttk_ms": slower, "ttl_ms": tight, "ttf_ms": loose, "qps": slower}, nil),
		doc("enum_deep", 1, nil, map[string]summary{"wcoj.seeks.triangle": point(1001, 1)}),
	)
	var buf bytes.Buffer
	code := compareSides(&buf, a, b)
	out := buf.String()
	for _, want := range []string{"ttk_ms", "regressed", "unresolved", "count-drift"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	verdict := func(metric string) string {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return ""
	}
	for metric, want := range map[string]string{
		"ttk_ms": "regressed", "ttl_ms": "ok", "ttf_ms": "unresolved", "qps": "ok", "wcoj.seeks.triangle": "count-drift",
	} {
		if got := verdict(metric); got != want {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, got, want, out)
		}
	}
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	buf.Reset()
	if code := compareSides(&buf, a, a); code != 0 {
		t.Errorf("a against itself: exit code %d, want 0\n%s", code, buf.String())
	}
	failing := sideOf(doc("enum_deep", 1, map[string]summary{"ttk_ms": tight}, nil))
	failing.failed = 1
	buf.Reset()
	if code := compareSides(&buf, a, failing); code != 1 || !strings.Contains(buf.String(), "failed_share rose") {
		t.Errorf("higher failed share: exit code %d\n%s", code, buf.String())
	}
}
