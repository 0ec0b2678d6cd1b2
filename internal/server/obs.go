package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"regexp"
	"time"

	"repro/internal/obs"
	"repro/internal/ranking"
)

// serverMetrics is the server's Prometheus surface: every counter,
// gauge, and histogram the handlers touch, pre-resolved at construction
// so the hot path never takes the registry lock. The /v1/stats counters
// live here too — one set of atomics serves both the JSON stats payload
// and the /metrics exposition.
type serverMetrics struct {
	reg *obs.Registry

	// The /v1/stats counters (also exported as anykd_* series).
	queryRequests  *obs.Counter
	rejected       *obs.Counter
	inflight       *obs.Gauge
	patches        *obs.Counter
	plansPatched   *obs.Counter
	rowsStreamed   *obs.Counter
	watchdogCloses *obs.Counter

	// Plan preparation latency (registry lookup + build) by cache
	// disposition: a hit measures singleflight join/lookup time, a miss
	// the full compile + instantiate.
	prepareHit  *obs.Histogram
	prepareMiss *obs.Histogram

	// The paper's latency metrics, per ranking function: time from
	// request start to the first streamed result (TTF) and to the k'th
	// (TT(k), observed only on streams that reach k results).
	// Read-only after construction, so lookups are lock-free.
	ttf map[ranking.Aggregate]*obs.Histogram
	ttk map[ranking.Aggregate]*obs.Histogram
}

// newServerMetrics builds the metric surface against s (whose registry
// and stream fields the func-backed series read at scrape time).
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}
	m.queryRequests = r.Counter("anykd_query_requests_total",
		"Query-path requests received (/topk, dataset PATCH).")
	m.rejected = r.Counter("anykd_admission_rejected_total",
		"Requests refused with 429 by admission control.")
	m.inflight = r.Gauge("anykd_inflight_enumerations",
		"Enumerations currently holding an admission slot.")
	m.patches = r.Counter("anykd_dataset_patches_total",
		"Dataset deltas applied via PATCH /v1/datasets/{name}.")
	m.plansPatched = r.Counter("anykd_plans_patched_total",
		"Warm registry handles advanced in place by dataset deltas.")
	m.rowsStreamed = r.Counter("anykd_rows_streamed_total",
		"NDJSON result rows streamed to clients.")
	m.watchdogCloses = r.Counter("anykd_watchdog_closes_total",
		"Streams whose write deadline was tightened because the request context ended (disconnect, deadline, shutdown).")
	m.prepareHit = r.Histogram("anykd_prepare_seconds",
		"Plan registry lookup+build latency by cache disposition.",
		obs.DefDurationBuckets, obs.L("cache", "hit"))
	m.prepareMiss = r.Histogram("anykd_prepare_seconds",
		"Plan registry lookup+build latency by cache disposition.",
		obs.DefDurationBuckets, obs.L("cache", "miss"))

	m.ttf = make(map[ranking.Aggregate]*obs.Histogram, len(ranking.All))
	m.ttk = make(map[ranking.Aggregate]*obs.Histogram, len(ranking.All))
	for _, agg := range ranking.All {
		m.ttf[agg] = r.Histogram("anykd_ttf_seconds",
			"Time from request start to the first streamed result (TTF).",
			obs.DefDurationBuckets, obs.L("agg", agg.Name()))
		m.ttk[agg] = r.Histogram("anykd_ttk_seconds",
			"Time from request start to the k'th streamed result (TT(k)).",
			obs.DefDurationBuckets, obs.L("agg", agg.Name()))
	}

	// Plan-registry series read the registry's own atomics at scrape
	// time, so the cache keeps exactly one source of truth.
	r.CounterFunc("anykd_plan_cache_hits_total",
		"Plan registry lookups that found the key resident (zero preparation).",
		func() float64 { return float64(s.reg.hits.Load()) })
	r.CounterFunc("anykd_plan_cache_misses_total",
		"Plan registry lookups that ran a build.",
		func() float64 { return float64(s.reg.misses.Load()) })
	r.CounterFunc("anykd_plan_cache_evictions_total",
		"Prepared handles dropped by the registry's LRU bound.",
		func() float64 { return float64(s.reg.evicted.Load()) })
	r.GaugeFunc("anykd_plan_cache_size",
		"Prepared handles resident in the plan registry (one per query shape over one set of dataset versions).",
		func() float64 { return float64(s.reg.size()) })
	r.GaugeFunc("anykd_active_streams",
		"Handlers currently registered with the stream group (includes drain bookkeeping).",
		func() float64 {
			s.streamMu.Lock()
			n := s.streams
			s.streamMu.Unlock()
			return float64(n)
		})
	obs.RegisterRuntime(r)
	return m
}

// statusWriter records the status code and body size flowing through a
// ResponseWriter for the access log and per-status metrics. Unwrap
// keeps http.NewResponseController (write deadlines) working, and the
// explicit Flush keeps the streaming handlers' Flusher assertion true.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// requestIDRe bounds what a client-supplied X-Request-ID may look like;
// anything else (including absence) gets a generated id. The bound
// keeps log lines and error envelopes injection-free.
var requestIDRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

// wrap is the per-endpoint observability middleware: request id
// generation/echo, trace creation (X-Trace-Id + ring buffer), request
// counters and latency histograms, the structured access log, and the
// slow-query log. Endpoint metric series are resolved once here, at
// route-registration time, so per-request work is lock-free. With
// Config.DisableObservability the handler is returned untouched — the
// uninstrumented baseline the overhead benchmark measures against.
func (s *Server) wrap(endpoint string, withTrace bool, h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.DisableObservability {
		return h
	}
	reg := s.met.reg
	reqs := reg.Counter("anykd_http_requests_total",
		"HTTP requests by endpoint.", obs.L("endpoint", endpoint))
	dur := reg.Histogram("anykd_http_request_duration_seconds",
		"HTTP request latency by endpoint.", obs.DefDurationBuckets, obs.L("endpoint", endpoint))
	infl := reg.Gauge("anykd_http_inflight_requests",
		"HTTP requests currently being served by endpoint.", obs.L("endpoint", endpoint))
	var byClass [6]*obs.Counter
	for c := 1; c <= 5; c++ {
		byClass[c] = reg.Counter("anykd_http_responses_total",
			"HTTP responses by endpoint and status class.",
			obs.L("endpoint", endpoint), obs.L("class", fmt.Sprintf("%dxx", c)))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		reqs.Inc()
		infl.Add(1)
		defer infl.Add(-1)

		// Header keys below are spelled in net/http canonical form so
		// Set/Get hit textproto's no-alloc fast path on this per-request
		// code; the wire form is identical either way.
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" || !requestIDRe.MatchString(reqID) {
			reqID = obs.NewID()
		}
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-Id", reqID)

		var tr *obs.Trace
		if withTrace {
			var ctx context.Context
			ctx, tr = obs.NewTrace(r.Context(), obs.NewID(), start)
			sw.Header().Set("X-Trace-Id", tr.ID)
			r = r.WithContext(ctx)
		}

		h(sw, r)

		elapsed := s.now().Sub(start)
		dur.Observe(elapsed.Seconds())
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if c := status / 100; c >= 1 && c <= 5 {
			byClass[c].Inc()
		}
		traceID := ""
		if tr != nil {
			tr.Finish(start.Add(elapsed))
			s.traces.Add(tr)
			traceID = tr.ID
		}
		if s.access != nil {
			s.access.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Int64("bytes", sw.bytes),
				slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
				slog.String("trace_id", traceID),
				slog.String("request_id", reqID),
				slog.String("plan_cache", sw.Header().Get("X-Plan-Cache")),
			)
		}
		if s.slow != nil && s.cfg.SlowQueryThreshold > 0 && elapsed >= s.cfg.SlowQueryThreshold {
			s.slow.LogAttrs(r.Context(), slog.LevelWarn, "slow-query",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
				slog.Float64("threshold_ms", float64(s.cfg.SlowQueryThreshold)/float64(time.Millisecond)),
				slog.String("trace_id", traceID),
				slog.String("request_id", reqID),
			)
		}
	}
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (also mounted on AdminHandler).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}

// handleTrace serves GET /v1/traces/{id}: the recorded span tree of a
// recent request, addressed by the X-Trace-Id its response carried.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.traces.Get(id)
	if tr == nil {
		httpError(w, http.StatusNotFound, errNotFound,
			"unknown trace %q (the ring keeps the most recent %d)", id, s.cfg.TraceCapacity)
		return
	}
	writeJSON(w, tr.Snapshot())
}

// AdminHandler returns the operator-only handler tree — net/http/pprof
// under /debug/pprof/ plus a /metrics alias — meant for a separate
// loopback listener (cmd/anykd's -admin-addr), never the public mux.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}
