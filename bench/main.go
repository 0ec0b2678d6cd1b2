// Command bench is the repository's benchmark: four pinned workloads
// over the library facade and the serving layer, every result checked
// against a benchmark-owned oracle, every end-to-end metric reported by
// name with unit, sample count, median and quartiles, and (with
// -trace 1) a layer-by-layer replay that times each package's public
// functions from outside. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// benchSchema versions the -out document and the metric definitions.
const benchSchema = 1

// runSeconds is the timed window the driver asks for (run_seconds in
// /BENCHMARK.json) and the default of -seconds.
const runSeconds = 20

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one the timed window uses.
const setupReps = 5

// loadShape is printed in every header: how load is offered.
const loadShape = "library: one goroutine; serving: closed loop, 2 clients on 2 keep-alive connections"

// setupTimes splits out the benchmark's own share of set-up.
type setupTimes struct {
	fixture, oracle time.Duration
}

// config is what one run is asked to do.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// div shrinks every fixture (see gen); 1 outside tests.
	div int
}

func (c config) gen() gen { return gen{seed: c.seed, div: c.div} }

// output is one run's result: the contract's last line plus everything
// the human table and the -out document show.
type output struct {
	Schema    int                `json:"bench_schema"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Header    map[string]any     `json:"header"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	E2E       map[string]summary `json:"end_to_end,omitempty"`
	Layer     map[string]summary `json:"per_layer,omitempty"`
	Detail    map[string]summary `json:"detail,omitempty"`
	Spans     []span             `json:"spans,omitempty"`

	mu sync.Mutex
}

func newOutput(c config) *output {
	return &output{
		Schema: benchSchema, Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Header: header(), E2E: map[string]summary{}, Layer: map[string]summary{}, Detail: map[string]summary{},
	}
}

// op counts one attempted operation; a non-nil err makes it a failed
// one (error, wrong status or header, missing trailer, oracle mismatch).
func (o *output) op(err error, what string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Attempted++
	if err != nil {
		o.Failed++
		if len(o.Errors) < 8 {
			o.Errors = append(o.Errors, what+": "+err.Error())
		}
	}
}

func (o *output) fail(err error) { o.op(err, "op") }

func (o *output) e2e(name string, s summary)    { o.E2E[name] = s }
func (o *output) layer(name string, s summary)  { o.Layer[name] = s }
func (o *output) detail(name string, s summary) { o.Detail[name] = s }

func header() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"git_commit": commit,
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"load_shape": loadShape,
		"operation_counts": map[string]int{
			"enum_deep.topk_calls_per_fixture": enumTopKCalls,
			"library.k":                        topK,
			"serve.clients":                    serveClients,
			"serve.reads_per_pass":             len(readMix()),
			"serve_delta.reads_per_patch":      deltaReadsPerPatch,
			"serve_delta.rows_per_patch":       deltaRows,
			"setup_reps":                       setupReps,
		},
	}
}

func main() {
	var c config
	var out, traceFlag string
	var compare bool
	flag.StringVar(&c.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&c.seed, "seed", 1, "seed every generator seed derives from")
	flag.Float64Var(&c.seconds, "seconds", runSeconds, "length of the timed window")
	flag.StringVar(&traceFlag, "trace", "0", "1 = layer-by-layer traced run reporting the per-layer metrics")
	flag.StringVar(&out, "out", "", "write the run's JSON document (with spans when traced) to this file")
	flag.BoolVar(&compare, "compare", false, "compare two -out documents: bench -compare a.json b.json")
	flag.Parse()
	c.div = 1
	c.trace = traceFlag == "1" || traceFlag == "true"

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS %d exceeds the %d CPUs present; timings would measure oversubscription\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		os.Exit(2)
	}
	//anykvet:allow ctxplumb -- the program's one root context; every server, request and traced layer call below derives from it
	ctx := context.Background()

	names := []string{c.workload}
	if c.workload == "all" {
		names = workloadNames()
	}
	var docs []*output
	code := 0
	for _, name := range names {
		c.workload = name
		o, err := run(ctx, c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		docs = append(docs, o)
		printTable(os.Stdout, o)
		fmt.Println(string(o.lastLine()))
		if o.Failed > 0 {
			code = 1
		}
	}
	if out != "" {
		if err := writeDocs(out, docs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// run sets the workload up setupReps times, keeps the last state, and
// drives it for c.seconds (untraced: the end-to-end metrics; traced:
// the layer replay).
func run(ctx context.Context, c config) (*output, error) {
	o := newOutput(c)
	var setups []float64
	var tm setupTimes
	var state workloadState
	reps := setupReps
	if c.trace {
		reps = 1 // only for bench.fixture_s and bench.oracle_s; the replay sets up its own
	}
	for i := 0; i < reps; i++ {
		if state != nil {
			state.close()
		}
		runtime.GC()
		tm = setupTimes{}
		t0 := time.Now()
		var err error
		state, err = setupWorkload(ctx, c, &tm)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", c.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer state.close()
	o.detail("bench.fixture_s", point(tm.fixture.Seconds(), 1))
	o.detail("bench.oracle_s", point(tm.oracle.Seconds(), 1))
	window := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		if err := traced(ctx, c, o, window); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", c.workload, err)
		}
		o.layer("bench.fixture_s", point(tm.fixture.Seconds(), 1))
		o.layer("bench.oracle_s", point(tm.oracle.Seconds(), 1))
		return o, nil
	}
	o.e2e("setup_s", summarize(setups))
	state.run(ctx, o, time.Now().Add(window))
	for _, d := range endToEnd {
		// A class of op the window never completed leaves its metric
		// without a sample; that is a failed run, not a zero.
		if s, ok := o.E2E[d.Name]; !ok || s.N == 0 {
			o.op(fmt.Errorf("no sample in a %gs window", c.seconds), d.Name)
			o.e2e(d.Name, summary{})
		}
	}
	return o, nil
}

// workloadState is a set-up workload: run drives the timed window and
// files the end-to-end metrics, close releases what set-up started.
type workloadState interface {
	run(ctx context.Context, o *output, deadline time.Time)
	close()
}

func setupWorkload(ctx context.Context, c config, tm *setupTimes) (workloadState, error) {
	switch c.workload {
	case "enum_deep":
		return setupEnum(c.gen(), tm)
	case "cold_prepare":
		return setupCold(c.gen(), tm)
	case "serve_warm":
		return setupServe(ctx, c.gen(), tm, false)
	case "serve_delta":
		return setupServe(ctx, c.gen(), tm, true)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames(), ", "))
}

// lastLine is the contract's result line: correct, attempted, failed
// and the metrics of this run's kind, each as {value, unit}.
func (o *output) lastLine() []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls, got := endToEnd, o.E2E
	if o.Trace {
		decls, got = perLayer, o.Layer
	}
	metrics := map[string]mv{}
	for _, d := range decls {
		metrics[d.Name] = mv{Value: got[d.Name].Median, Unit: d.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   o.Failed == 0 && o.Attempted > 0,
		"attempted": o.Attempted,
		"failed":    o.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // only floats, ints and strings above; NaN cannot occur for a filed metric
	}
	return b
}

func printTable(w *os.File, o *output) {
	fmt.Fprintf(w, "== %s  seed=%d  window=%gs  trace=%v  bench_schema=%d\n", o.Workload, o.Seed, o.Seconds, o.Trace, o.Schema)
	h := o.Header
	fmt.Fprintf(w, "   commit=%v  %v  GOMAXPROCS=%v  nproc=%v\n   %v\n   operation counts: %v\n",
		h["git_commit"], h["go_version"], h["gomaxprocs"], h["nproc"], h["load_shape"], h["operation_counts"])
	fmt.Fprintf(w, "   attempted=%d failed=%d\n", o.Attempted, o.Failed)
	for _, e := range o.Errors {
		fmt.Fprintf(w, "   FAILED %s\n", e)
	}
	section := func(title string, decls []metricDecl, got map[string]summary) {
		if len(got) == 0 {
			return
		}
		fmt.Fprintf(w, "%-38s %-6s %8s %14s %14s %14s\n", title, "unit", "n", "median", "q1", "q3")
		for _, d := range decls {
			s, ok := got[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-36s %-6s %8d %14.6g %14.6g %14.6g\n", d.Name, d.Unit, s.N, s.Median, s.Q1, s.Q3)
		}
	}
	section("end-to-end", endToEnd, o.E2E)
	section("per-layer", perLayer, o.Layer)
	if len(o.Detail) > 0 {
		names := make([]string, 0, len(o.Detail))
		for n := range o.Detail {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "detail (not part of the contract)\n")
		for _, n := range names {
			s := o.Detail[n]
			fmt.Fprintf(w, "  %-43s %8d %14.6g %14.6g %14.6g\n", n, s.N, s.Median, s.Q1, s.Q3)
		}
	}
}

func writeDocs(path string, docs []*output) error {
	b, err := json.MarshalIndent(docs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
