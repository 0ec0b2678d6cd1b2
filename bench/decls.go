package main

import "fmt"

// The declarations below are the benchmark's contract. /BENCHMARK.json
// carries the same workloads and metrics in the driver's format;
// TestDeclarationsMatchBenchmarkJSON keeps the two equal.

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	Bound float64
	// Exact marks a figure that repeats bit for bit at a fixed seed (a
	// count, or a ratio of counts); -compare reports any difference in
	// one as count-drift.
	Exact bool
}

var workloads = []workloadDecl{
	{"enum_deep", "warm plans, 60 top-1000 runs and 3 full enumerations per pass: core/heap/ranking do nearly all the work, prepare none"},
	{"cold_prepare", "fresh Query+Compile+Run of 8 shapes per pass, one per planner path: relation/catalog/wcoj/decomp/dp do the work, enumeration little"},
	{"serve_warm", "2 closed-loop HTTP clients reading warm plans at k=10/100/1000: admission, caches, NDJSON encode, flush and socket dominate"},
	{"serve_delta", "same server with a PATCH every 10th op of one client beside the reads: ApplyDelta, registry re-keying, post-delta re-warming"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a caller of the library or the server sees.
// Every one is defined on every workload (README.md, "End-to-end
// metrics", says how on each). The time metrics carry the widest bound
// the driver allows because run-to-run noise on the shared 2-core box
// this was calibrated on reaches 7 % in quiet spells and far more in
// loud ones; the memory metrics repeat to within 2 % and gate tightly.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ttf_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "tt10_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "tt100_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "ttk_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "ttl_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: lower, Bound: 0.06},
	{Name: "live_heap_mb", Unit: "MB", Better: lower, Bound: 0.05},
}

var (
	variants      = []string{"Eager", "Lazy", "Quick", "All", "Take2", "Rec", "Batch"}
	coldNames     = []string{"triangle", "hub_triangle", "c4", "c5", "c6", "chorded5", "bowtie", "star8"}
	wcojFixtures  = []string{"triangle", "hub_triangle", "chorded5"}
	serveKs       = []string{"k10", "k100", "k1000"}
	decompTimed   = []string{"triangle", "c4", "c5", "c6", "chorded5", "bowtie"}
	decompCounted = []string{"c4", "c5", "c6", "chorded5", "bowtie"}
)

// perLayer are the traced run's metrics, one layer (package) each.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDecl{Name: n, Unit: unit, Better: better, Exact: exact})
		}
	}
	each := func(format string, of []string) []string {
		names := make([]string, len(of))
		for i, x := range of {
			names[i] = fmt.Sprintf(format, x)
		}
		return names
	}
	add("ms", lower, false, "relation.ingest_ms", "relation.index_build_ms")
	add("MB", lower, false, "relation.index_alloc_mb")
	add("ms", lower, false, "catalog.collect_ms", "catalog.costmodel_ms")
	add("ratio", lower, true, "catalog.est_error.chorded5")
	add("ms", lower, false, "hypergraph.decompose_ms")
	add("count", lower, true, "hypergraph.width.chorded5")
	add("ms", lower, false, "yannakakis.reduce_ms", "yannakakis.reduce_delta_ms")
	add("ratio", lower, true, "yannakakis.kept_ratio")
	add("ms", lower, false, "dp.newplan_ms", "dp.instantiate_ms", "dp.instantiate_delta_ms")
	add("MB", lower, false, "dp.instantiate_alloc_mb")
	add("ratio", higher, false, "dp.par_speedup")
	add("ms", lower, false, each("wcoj.materialize_ms.%s", wcojFixtures)...)
	add("count", lower, true, each("wcoj.seeks.%s", wcojFixtures)...)
	add("ratio", lower, true, each("wcoj.seeks_per_agm.%s", wcojFixtures)...)
	add("MB", lower, false, "wcoj.alloc_mb.chorded5")
	add("ratio", higher, false, "wcoj.par_speedup.hub_triangle")
	add("ratio", lower, true, "wcoj.max_task_share.hub_triangle")
	add("ms", lower, false, each("decomp.prepare_ms.%s", decompTimed)...)
	add("count", lower, true, each("decomp.materialized.%s", decompCounted)...)
	add("MB", lower, false, "decomp.alloc_mb.c5", "decomp.alloc_mb.c6")
	add("ms", lower, false, each("core.ttk_ms.%s", variants)...)
	add("ms", lower, false, each("core.ttl_ms.%s", variants)...)
	add("count", lower, false, each("core.allocs_per_result.%s", []string{"Lazy", "Take2", "Rec", "Batch"})...)
	add("us", lower, false, each("core.ttf_us.%s", []string{"Lazy", "Take2", "Rec"})...)
	add("us", lower, false, each("core.delay_p99_us.%s", []string{"Lazy", "Take2", "Rec"})...)
	add("ms", lower, false, "core.merge_ttl_ms.c4")
	add("1/s", higher, false, "sample.samples_per_s.triangle")
	add("ratio", higher, true, "sample.accept_ratio.chorded5")
	add("count", lower, true, "sample.exhausted.chorded5")
	add("ms", lower, false, each("repro.compile_ms.%s", coldNames)...)
	add("ms", lower, false, each("repro.first_run_ms.%s", coldNames)...)
	add("B", lower, false, each("repro.live_bytes_per_tuple.%s", []string{"path4", "c6", "chorded5"})...)
	add("ms", lower, false, "repro.apply_delta_ms")
	add("ratio", higher, true, "repro.delta_nodes_reused_ratio")
	add("ratio", lower, false, "repro.layer_coverage.acyclic", "repro.layer_coverage.cyclic")
	add("ms", lower, false, "server.ingest_ms", "server.cold_topk_ms")
	add("us", lower, false, each("server.loopback_us.%s", serveKs)...)
	add("us", lower, false, each("server.handler_us.%s", serveKs)...)
	add("us", lower, false, each("server.facade_us.%s", serveKs)...)
	add("ratio", lower, false, "server.socket_share.k100", "server.encode_share.k1000")
	add("us", lower, false, "server.ttfb_us.k1000")
	add("count", lower, false, "server.allocs_per_req.k10", "server.allocs_per_row")
	add("%", lower, false, "server.obs_overhead_pct")
	add("ratio", higher, true, "server.registry_hit_ratio")
	add("ms", lower, false, "server.patch_ms")
	add("count", higher, true, "server.plans_patched")
	add("us", lower, false, "server.post_patch_topk_us.k100")
	add("ms", lower, false, "server.req_p99_ms.k100")
	add("%", lower, false, each("share.%s", layers)...)
	add("%", lower, false, "bench.trace_overhead_pct")
	add("s", lower, false, "bench.fixture_s", "bench.oracle_s")
	return out
}
