// Package server is the serving layer of the reproduction: an
// embeddable HTTP query service over the facade's prepare-once /
// execute-many API. Clients register named datasets (JSON tuples or
// CSV), register named queries binding those datasets to query
// variables, and stream ranked top-k results as NDJSON.
//
// The expensive half of every request — hypergraph analysis, T-DP or
// decomposition planning, per-ranking instantiation — is paid once per
// (query shape, dataset versions, ranking) and cached in one LRU plan
// registry with singleflight build deduplication (see registry): under
// concurrent load a cold key triggers exactly one preparation and every
// warm request does zero preparation, going straight to the any-k
// enumeration whose per-result delay guarantees the streamed NDJSON
// inherits.
//
// Operational behaviour:
//
//   - Admission control: at most Config.MaxInflight enumerations run
//     concurrently; beyond that /topk returns 429 with Retry-After.
//   - Deadlines: every request gets Config.DefaultTimeout (clients may
//     lower — never raise past Config.MaxTimeout — via ?timeout=); the
//     deadline cancels the iterator mid-stream through the facade's
//     WithContext plumbing.
//   - Disconnects: a client going away cancels the request context,
//     which stops the iterator at its next Next and tightens the write
//     deadline, so a handler stalled on the dead connection returns and
//     the admission slot is released promptly.
//   - Delivery: result lines are appended into one buffer per request.
//     The first is written and flushed at once, so time to first result
//     is the engine's; later lines go out once 4 KiB are buffered or
//     1 ms has passed since the last flush; the trailer always goes out.
//     A result with no JSON form (a non-finite weight) ends the stream
//     with an error trailer.
//   - Graceful shutdown: Shutdown stops admitting new streams, lets
//     in-flight enumerations drain within the caller's context, then
//     cancels the server base context (cutting any stragglers) and
//     waits for every handler to return.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Config tunes a Server. The zero value selects the documented
// defaults.
type Config struct {
	// MaxInflight bounds concurrently running enumerations (the
	// admission-control semaphore). Default 64.
	MaxInflight int
	// DefaultTimeout is the per-request deadline when the client sends
	// no ?timeout=. Default 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested ?timeout=. Default 60s.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds dataset/query upload bodies. Default 64 MiB.
	MaxBodyBytes int64
	// MaxK caps ?k= (0 = unlimited). Default 0.
	MaxK int
	// RegistryCapacity bounds resident prepared handles (one per query
	// shape over one set of dataset versions, whatever the number of
	// rankings warmed on it). Default 128.
	RegistryCapacity int
	// TraceCapacity bounds the in-memory ring of recorded request
	// traces served by GET /v1/traces/{id}. Default 64.
	TraceCapacity int
	// SlowQueryThreshold, when positive, logs a structured slow-query
	// line (with the trace id) for any request at or above it.
	SlowQueryThreshold time.Duration
	// AccessLog, when non-nil, receives one JSON line per request
	// (log/slog). Nil disables access logging.
	AccessLog io.Writer
	// SlowQueryLog receives slow-query lines; nil falls back to the
	// AccessLog destination.
	SlowQueryLog io.Writer
	// DisableObservability strips the per-request middleware (tracing,
	// access logs, per-endpoint metrics) — the uninstrumented baseline
	// the overhead benchmark compares against. The /v1/stats counters
	// and the /metrics endpoint itself remain live.
	DisableObservability bool
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.RegistryCapacity <= 0 {
		c.RegistryCapacity = 128
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 64
	}
	return c
}

// Server is the query service. Create one with New, mount Handler on an
// http.Server (cmd/anykd does exactly that), and call Shutdown or Close
// when done.
type Server struct {
	cfg Config
	mux *http.ServeMux
	reg *registry
	sem chan struct{} // admission semaphore, buffered to MaxInflight

	baseCtx    context.Context // canceled to cut every in-flight stream
	cancelBase context.CancelFunc

	// Stream accounting. A plain counter under a mutex rather than a
	// WaitGroup: handlers may start concurrently with Shutdown's wait,
	// and WaitGroup panics when Add-from-zero races Wait. acquireStream
	// atomically refuses once draining is set; idle is created by the
	// first Shutdown and closed when the count reaches zero while
	// draining.
	streamMu   sync.Mutex
	draining   bool
	streams    int
	idle       chan struct{}
	idleClosed bool

	// mu guards datasets and queries, and with them the pairing of
	// dataset versions and registry keys (registry invariant 4). writeMu
	// serialises dataset writers (PUT, PATCH) from reading the current
	// snapshot to publishing the next.
	writeMu  sync.Mutex
	mu       sync.RWMutex
	datasets map[string]*dataset
	queries  map[string]*queryDef

	dictMu sync.RWMutex
	dict   *relation.Dictionary // shared across datasets so string joins line up
	// quoted[i] is dict's code DictBase+i as encoding/json writes the
	// string, computed once when the code is assigned. Entries never
	// change once appended, so a stream may keep a snapshot of the slice
	// (queryStream.row).
	quoted [][]byte

	// Observability: the metric surface (also backing /v1/stats), the
	// request-trace ring served by /v1/traces/{id}, and the structured
	// loggers. now is the clock every duration observation reads — a
	// test seam for the TTF/TT(k) histograms.
	met    *serverMetrics
	traces *obs.TraceStore
	access *slog.Logger
	slow   *slog.Logger
	now    func() time.Time
}

// dataset is an immutable registered relation instance. Re-registering
// a name installs a fresh dataset with a bumped version and drops the
// plans compiled against the old one.
type dataset struct {
	name    string
	version int
	arity   int
	attrs   []string // informational (CSV header or c0..cN-1)
	tuples  []relation.Tuple
	weights []float64
	// epoch counts updates to this name since its last full upload: 1
	// at registration, +1 per applied PATCH delta.
	epoch int
}

// atomDef binds one dataset to query variables, one per atom.
type atomDef struct {
	Dataset string   `json:"dataset"`
	Vars    []string `json:"vars"`
}

// queryDef is a registered query: a shape over named datasets.
type queryDef struct {
	name        string
	atoms       []atomDef
	fingerprint string
	outAttrs    []string
}

// New returns a ready-to-mount Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// The server's base context outlives any request on purpose: plan
	// builds run detached on it so a disconnecting winner cannot fail
	// the waiters sharing the build (bounded by MaxTimeout), and it is
	// canceled only by Shutdown.
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		reg:        newRegistry(cfg.RegistryCapacity),
		sem:        make(chan struct{}, cfg.MaxInflight),
		baseCtx:    ctx,
		cancelBase: cancel,
		datasets:   make(map[string]*dataset),
		queries:    make(map[string]*queryDef),
		dict:       relation.NewDictionary(),
		now:        time.Now,
	}
	s.met = newServerMetrics(s)
	s.traces = obs.NewTraceStore(cfg.TraceCapacity)
	if cfg.AccessLog != nil {
		s.access = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	if slowW := cfg.SlowQueryLog; slowW != nil {
		s.slow = slog.New(slog.NewJSONHandler(slowW, nil))
	} else {
		s.slow = s.access
	}
	s.mux.HandleFunc("GET /healthz", s.wrap("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("POST /v1/datasets/{name}", s.wrap("dataset_put", false, s.handleDatasetPut))
	s.mux.HandleFunc("PUT /v1/datasets/{name}", s.wrap("dataset_put", false, s.handleDatasetPut))
	s.mux.HandleFunc("PATCH /v1/datasets/{name}", s.wrap("dataset_patch", true, s.handleDatasetPatch))
	s.mux.HandleFunc("GET /v1/datasets", s.wrap("dataset_list", false, s.handleDatasetList))
	s.mux.HandleFunc("POST /v1/queries/{name}", s.wrap("query_put", false, s.handleQueryPut))
	s.mux.HandleFunc("PUT /v1/queries/{name}", s.wrap("query_put", false, s.handleQueryPut))
	s.mux.HandleFunc("GET /v1/queries", s.wrap("query_list", false, s.handleQueryList))
	s.mux.HandleFunc("GET /v1/query/{name}/topk", s.wrap("topk", true, s.handleTopK))
	s.mux.HandleFunc("GET /v1/stats", s.wrap("stats", false, s.handleStats))
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler tree rooted at /.
func (s *Server) Handler() http.Handler { return s.mux }

// acquireStream registers one in-flight stream, refusing once the
// server is draining. Pair a true return with releaseStream.
func (s *Server) acquireStream() bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.draining {
		return false
	}
	s.streams++
	return true
}

func (s *Server) releaseStream() {
	s.streamMu.Lock()
	s.streams--
	if s.streams == 0 && s.draining && s.idle != nil && !s.idleClosed {
		s.idleClosed = true
		close(s.idle)
	}
	s.streamMu.Unlock()
}

func (s *Server) isDraining() bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return s.draining
}

// Shutdown gracefully stops the server: new /topk requests are refused
// with 503, in-flight streams drain until ctx expires, then the base
// context is canceled (which cancels every remaining iterator through
// WithContext) and Shutdown waits for the handlers to return. The
// HTTP listener itself is the caller's to close (http.Server.Shutdown).
// Shutdown is idempotent and safe to call concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.streamMu.Lock()
	s.draining = true
	if s.idle == nil {
		s.idle = make(chan struct{})
		if s.streams == 0 {
			s.idleClosed = true
			close(s.idle)
		}
	}
	idle := s.idle
	s.streamMu.Unlock()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Cut any stragglers (no-op after a clean drain) and wait for them:
	// canceled iterators stop at their next Proceed, so this converges
	// within one result delay.
	s.cancelBase()
	<-idle
	return err
}

// Close is Shutdown with no grace period.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// writeGrace is how long past its deadline a stream may keep writing —
// enough to deliver the trailer line explaining the termination.
const writeGrace = 5 * time.Second

// cancelWriteGrace is the tighter write budget a canceled stream gets:
// once the request context is done (disconnect, deadline, shutdown)
// streamTopK shrinks the write deadline so a handler stalled on a
// non-reading client unblocks promptly while a live client can still
// receive the trailer.
const cancelWriteGrace = 2 * time.Second

// Machine-readable error codes: every non-2xx JSON response carries
// {"error": {"code": <one of these>, "message": <human text>}} so
// clients can branch without parsing prose. The NDJSON stream trailer's
// error field is unaffected — by then the HTTP status is long gone and
// the trailer is part of the result protocol, not the error envelope.
const (
	errInvalidArgument = "invalid_argument" // malformed name, parameter, or body
	errNotFound        = "not_found"        // unknown dataset or query
	errConflict        = "conflict"         // registered state disagrees (arity drift, concurrent update)
	errRateLimited     = "rate_limited"     // admission control refused the request
	errUnavailable     = "unavailable"      // server draining/shutting down
	errTimeout         = "timeout"          // preparation exceeded its deadline
	errInternal        = "internal"         // everything else
)

// errorBody is the unified error envelope of every /v1 endpoint.
// RequestID echoes the request's X-Request-ID (generated or
// client-supplied) so an error response correlates with the access log
// without the client having read the headers.
type errorBody struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id,omitempty"`
	} `json:"error"`
}

func httpError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = fmt.Sprintf(format, args...)
	// The middleware stamped the id onto the response headers before the
	// handler ran; reading it back here spares every call site a
	// parameter.
	body.Error.RequestID = w.Header().Get("X-Request-Id")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// datasetUpload is the JSON form of a dataset body. Cells are JSON
// numbers (must be integral — the engine's domain is int64) or strings
// (dictionary-encoded server-wide, so string joins across datasets
// work).
type datasetUpload struct {
	Attrs     []string          `json:"attrs"`
	Weights   []float64         `json:"weights"`
	RawTuples []json.RawMessage `json:"tuples"`
}

func (s *Server) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !nameRe.MatchString(name) {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "invalid dataset name %q", name)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	var (
		ds  *dataset
		err error
	)
	if strings.HasPrefix(ct, "text/csv") {
		ds, err = s.readCSVDataset(name, r)
	} else {
		ds, err = s.readJSONDataset(name, r)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "dataset %s: %v", name, err)
		return
	}
	ds.epoch = 1
	s.writeMu.Lock()
	s.mu.Lock()
	ds.version = 1
	if old, ok := s.datasets[name]; ok {
		ds.version = old.version + 1
	}
	s.datasets[name] = ds
	// Every handle bound to the replaced snapshot holds a full copy of
	// data no request will ask for again.
	s.reg.advance(name, ds.version, nil)
	s.mu.Unlock()
	s.writeMu.Unlock()
	writeJSON(w, map[string]any{
		"name": name, "rows": len(ds.tuples), "arity": ds.arity, "version": ds.version,
		"epoch": ds.epoch,
	})
}

// readCSVDataset ingests a CSV body through relation.ReadCSV: first row
// is the header; ?weights=false treats every column as a value column
// (default true: the last column is the float weight). Column typing
// and dictionary encoding follow ReadCSV's whole-column rules. The
// body is parsed against a request-local dictionary so a slow, large
// upload never holds the shared dictionary lock that streaming
// handlers read quoted strings under; the local codes are remapped into
// the shared dictionary in one short critical section afterwards.
func (s *Server) readCSVDataset(name string, r *http.Request) (*dataset, error) {
	weightCol := true
	if v := r.URL.Query().Get("weights"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("bad weights param %q", v)
		}
		weightCol = b
	}
	local := relation.NewDictionary()
	rel, err := relation.ReadCSV(r.Body, name, weightCol, local)
	if err != nil {
		return nil, err
	}
	s.mergeDict(local, rel.Tuples)
	return &dataset{
		name:    name,
		arity:   len(rel.Attrs),
		attrs:   rel.Attrs,
		tuples:  rel.Tuples,
		weights: rel.Weights,
	}, nil
}

// mergeDict rewrites the codes a request-local dictionary assigned in
// tuples into the shared server dictionary, taking the shared lock for
// one short remap instead of once per parsed string. Both ingest paths
// reject raw integers at or above relation.DictBase, so every value in
// the code space here is a local code.
func (s *Server) mergeDict(local *relation.Dictionary, tuples []relation.Tuple) {
	if local.Len() == 0 {
		return
	}
	// Resolve already-known strings under the read lock first; the
	// write lock covers only genuinely new strings (typically none on a
	// re-upload), so streams reading quoted strings stall as little as
	// possible.
	remap := make([]relation.Value, local.Len())
	var misses []int
	s.dictMu.RLock()
	for i := range remap {
		str, _ := local.Decode(relation.DictBase + relation.Value(i))
		if c, ok := s.dict.Lookup(str); ok {
			remap[i] = c
		} else {
			misses = append(misses, i)
		}
	}
	s.dictMu.RUnlock()
	if len(misses) > 0 {
		s.dictMu.Lock()
		for _, i := range misses {
			str, _ := local.Decode(relation.DictBase + relation.Value(i))
			remap[i] = s.dict.Code(str)
			if s.dict.Len() > len(s.quoted) {
				// str got a new code: quote it once, for every row that
				// will ever stream it.
				b, _ := json.Marshal(str) // a string always encodes
				s.quoted = append(s.quoted, b)
			}
		}
		s.dictMu.Unlock()
	}
	for _, t := range tuples {
		for j, v := range t {
			if v >= relation.DictBase {
				t[j] = remap[v-relation.DictBase]
			}
		}
	}
}

// parseJSONTuples decodes an array of JSON tuples (cells are integral
// numbers or strings — strings encode through the supplied dictionary).
// arity < 0 infers the arity from the first tuple; otherwise every
// tuple must match it. Returns the tuples and the (inferred) arity.
func parseJSONTuples(raws []json.RawMessage, arity int, local *relation.Dictionary) ([]relation.Tuple, int, error) {
	tuples := make([]relation.Tuple, len(raws))
	for i, raw := range raws {
		var cells []any
		d := json.NewDecoder(bytes.NewReader(raw))
		d.UseNumber()
		if err := d.Decode(&cells); err != nil {
			return nil, 0, fmt.Errorf("tuple %d: %v", i, err)
		}
		if arity < 0 {
			arity = len(cells)
			if arity == 0 {
				return nil, 0, fmt.Errorf("tuple %d is empty", i)
			}
		} else if len(cells) != arity {
			return nil, 0, fmt.Errorf("tuple %d has arity %d, want %d", i, len(cells), arity)
		}
		t := make(relation.Tuple, arity)
		for j, c := range cells {
			switch v := c.(type) {
			case json.Number:
				n, err := strconv.ParseInt(v.String(), 10, 64)
				if err != nil {
					return nil, 0, fmt.Errorf("tuple %d cell %d: value %v is not an integer (the engine's domain is int64; quote it to treat it as a string)", i, j, v)
				}
				// Integers in the dictionary code space would alias string
				// codes and decode as unrelated strings downstream.
				if n >= relation.DictBase {
					return nil, 0, fmt.Errorf("tuple %d cell %d: integer %d collides with the dictionary code space (numeric values must be < 2^40; quote it to treat it as a string)", i, j, n)
				}
				t[j] = n
			case string:
				t[j] = local.Code(v)
			default:
				return nil, 0, fmt.Errorf("tuple %d cell %d: unsupported value %v", i, j, c)
			}
		}
		tuples[i] = t
	}
	return tuples, arity, nil
}

func (s *Server) readJSONDataset(name string, r *http.Request) (*dataset, error) {
	var up datasetUpload
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(&up); err != nil {
		return nil, err
	}
	if len(up.RawTuples) == 0 {
		return nil, fmt.Errorf("no tuples")
	}
	if up.Weights != nil && len(up.Weights) != len(up.RawTuples) {
		return nil, fmt.Errorf("%d tuples but %d weights", len(up.RawTuples), len(up.Weights))
	}
	// Strings encode through a request-local dictionary first (merged
	// into the shared one afterwards) so parsing a large body never
	// holds the lock streaming handlers read quoted strings under.
	local := relation.NewDictionary()
	tuples, arity, err := parseJSONTuples(up.RawTuples, -1, local)
	if err != nil {
		return nil, err
	}
	s.mergeDict(local, tuples)
	weights := up.Weights
	if weights == nil {
		weights = make([]float64, len(tuples))
	}
	attrs := up.Attrs
	if attrs == nil {
		attrs = make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d", i)
		}
	} else if len(attrs) != arity {
		return nil, fmt.Errorf("%d attrs but arity %d", len(attrs), arity)
	}
	return &dataset{name: name, arity: arity, attrs: attrs, tuples: tuples, weights: weights}, nil
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	type dsInfo struct {
		Name    string `json:"name"`
		Rows    int    `json:"rows"`
		Arity   int    `json:"arity"`
		Version int    `json:"version"`
		// Epoch is the last-update epoch: 1 at registration, +1 per
		// applied PATCH delta.
		Epoch int `json:"epoch"`
	}
	out := make([]dsInfo, 0, len(s.datasets))
	for _, ds := range s.datasets {
		out = append(out, dsInfo{
			Name: ds.name, Rows: len(ds.tuples), Arity: ds.arity, Version: ds.version, Epoch: ds.epoch,
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, map[string]any{"datasets": out})
}

func (s *Server) handleQueryPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !nameRe.MatchString(name) {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "invalid query name %q", name)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var body struct {
		Atoms []atomDef `json:"atoms"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "query %s: %v", name, err)
		return
	}
	if len(body.Atoms) == 0 {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "query %s: no atoms", name)
		return
	}
	for i, a := range body.Atoms {
		for _, v := range a.Vars {
			if !nameRe.MatchString(v) {
				httpError(w, http.StatusBadRequest, errInvalidArgument, "query %s atom %d: invalid variable name %q", name, i, v)
				return
			}
		}
	}
	s.mu.RLock()
	for i, a := range body.Atoms {
		ds, ok := s.datasets[a.Dataset]
		if !ok {
			s.mu.RUnlock()
			httpError(w, http.StatusBadRequest, errInvalidArgument, "query %s atom %d: unknown dataset %q", name, i, a.Dataset)
			return
		}
		if len(a.Vars) != ds.arity {
			s.mu.RUnlock()
			httpError(w, http.StatusBadRequest, errInvalidArgument, "query %s atom %d: %d vars but dataset %s has arity %d", name, i, len(a.Vars), a.Dataset, ds.arity)
			return
		}
	}
	s.mu.RUnlock()
	// Validate the shape (duplicate variables per atom, plannability) on
	// a data-free query: Fingerprint and OutAttrs only read structure.
	q := repro.NewQuery()
	for i, a := range body.Atoms {
		q.Rel(fmt.Sprintf("%s#%d", a.Dataset, i), a.Vars, nil, nil)
	}
	fp, err := q.Fingerprint()
	if err != nil {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "query %s: %v", name, err)
		return
	}
	outAttrs, err := q.OutAttrs()
	if err != nil {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "query %s: %v", name, err)
		return
	}
	qd := &queryDef{name: name, atoms: body.Atoms, fingerprint: fp, outAttrs: outAttrs}
	s.mu.Lock()
	s.queries[name] = qd
	s.mu.Unlock()
	writeJSON(w, map[string]any{"name": name, "fingerprint": fp, "out_attrs": outAttrs})
}

func (s *Server) handleQueryList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	type qInfo struct {
		Name        string    `json:"name"`
		Fingerprint string    `json:"fingerprint"`
		OutAttrs    []string  `json:"out_attrs"`
		Atoms       []atomDef `json:"atoms"`
	}
	out := make([]qInfo, 0, len(s.queries))
	for _, qd := range s.queries {
		out = append(out, qInfo{Name: qd.name, Fingerprint: qd.fingerprint, OutAttrs: qd.outAttrs, Atoms: qd.atoms})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, map[string]any{"queries": out})
}

// variantByName maps the ?variant= parameter (case-insensitive) to the
// any-k algorithm variants.
var variantByName = func() map[string]repro.Variant {
	m := make(map[string]repro.Variant)
	for _, v := range core.Variants() {
		m[strings.ToLower(string(v))] = v
	}
	return m
}()

// dataKey identifies one query shape over exact dataset versions — the
// plan registry's key: the shape fingerprint, the sorted multiset of
// (dataset@version, vars) bindings (variable names are nameRe-validated
// at registration, so the separators are unambiguous), and the output
// schema. Two registered query names with the same shape over the same
// dataset versions share a dataKey — and therefore one compiled handle —
// only when their output column order also matches: for acyclic
// queries that order follows the join tree, which depends on atom
// declaration order, so two reorderings of the same atoms can emit
// differently-ordered tuples and must not alias each other's plans.
func dataKey(qd *queryDef, versions []int) string {
	binds := make([]string, len(qd.atoms))
	for i, a := range qd.atoms {
		binds[i] = a.Dataset + "@" + strconv.Itoa(versions[i]) + "(" + strings.Join(a.Vars, " ") + ")"
	}
	sort.Strings(binds)
	return qd.fingerprint + "|" + strings.Join(binds, ",") + "|" + strings.Join(qd.outAttrs, " ")
}

// queryStream is one admitted, prepared /topk request as streamTopK
// sees it.
type queryStream struct {
	s     *Server
	w     http.ResponseWriter
	ctx   context.Context // client disconnect + request deadline + server shutdown
	start time.Time       // request start, the origin of TTF and TT(k)
	qd    *queryDef
	agg   ranking.Aggregate
	limit int
	hit   bool

	rc      *http.ResponseController
	flusher http.Flusher
	count   int // result lines so far

	// The NDJSON writer (ndjson.go): lines not yet sent, when the buffer
	// was last sent, the stream's snapshot of Server.quoted, and the
	// first failed write.
	buf       []byte
	flushedAt time.Time
	quoted    [][]byte
	werr      error
}

// handleTopK serves GET /v1/query/{name}/topk?k=&agg=&variant=&timeout=:
// the k best answers under the ranking, enumerated by the chosen any-k
// variant off a handle warmed for that ranking, one NDJSON line per
// result. The first line is flushed as soon as it exists; later ones go
// out in batches (ndjson.go), and the trailer ends every stream that
// still has a client.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	start := s.now()
	s.met.queryRequests.Inc()
	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, errUnavailable, "server shutting down")
		return
	}
	name := r.PathValue("name")
	qry := r.URL.Query()

	limit := 10
	if v := qry.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, errInvalidArgument, "bad k %q", v)
			return
		}
		limit = n
	}
	if s.cfg.MaxK > 0 && limit > s.cfg.MaxK {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "k %d exceeds maximum %d", limit, s.cfg.MaxK)
		return
	}
	var agg ranking.Aggregate
	if v := qry.Get("agg"); v != "" {
		var err error
		if agg, err = ranking.Parse(v); err != nil {
			httpError(w, http.StatusBadRequest, errInvalidArgument, "bad agg: %v", err)
			return
		}
	}
	variant := repro.Lazy
	if v := qry.Get("variant"); v != "" {
		var ok bool
		if variant, ok = variantByName[strings.ToLower(v)]; !ok {
			httpError(w, http.StatusBadRequest, errInvalidArgument, "unknown variant %q", v)
			return
		}
	}
	timeout := s.cfg.DefaultTimeout
	if v := qry.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, errInvalidArgument, "bad timeout %q", v)
			return
		}
		timeout = d
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	qd, e, ok := s.resolveQuery(w, name)
	if !ok {
		return
	}

	// Admission control: reject instead of queueing, so saturation is
	// visible to clients (and load balancers) immediately.
	select {
	case s.sem <- struct{}{}:
	default:
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, errRateLimited, "too many in-flight enumerations (max %d)", s.cfg.MaxInflight)
		return
	}
	defer func() { <-s.sem }()
	// Joining the stream group re-checks draining atomically: either we
	// register before Shutdown flips it (and its drain covers us), or we
	// are refused here.
	if !s.acquireStream() {
		httpError(w, http.StatusServiceUnavailable, errUnavailable, "server shutting down")
		return
	}
	defer s.releaseStream()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	// Request context: client disconnect + per-request deadline + server
	// shutdown all funnel into one cancellation the iterator observes.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	prepStart := s.now()
	p, hit, err := s.warmPlan(ctx, e, agg)
	if hit {
		s.met.prepareHit.Observe(s.now().Sub(prepStart).Seconds())
	} else {
		s.met.prepareMiss.Observe(s.now().Sub(prepStart).Seconds())
	}
	if err != nil {
		status, code := http.StatusInternalServerError, errInternal
		var domain *ranking.DomainError
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			status, code = http.StatusGatewayTimeout, errTimeout
		case errors.As(err, &domain):
			// The data is outside ?agg='s domain (a non-positive weight
			// under product, opposite infinities under a sum): the
			// request, not the server, is at fault.
			status, code = http.StatusBadRequest, errInvalidArgument
		}
		httpError(w, status, code, "prepare %s: %v", name, err)
		return
	}

	q := &queryStream{
		s: s, w: w, ctx: ctx, start: start, qd: qd, agg: agg, limit: limit, hit: hit,
		rc: http.NewResponseController(w),
	}
	q.flusher, _ = w.(http.Flusher)
	// Runs after streamTopK returned, its deadline tightening stopped or
	// joined, so no write deadline leaks onto the next keep-alive request
	// on this connection.
	defer q.rc.SetWriteDeadline(time.Time{})
	defer func() { s.met.rowsStreamed.Add(int64(q.count)) }()
	s.streamTopK(q, p, variant)
}

// begin commits the response to a 200 NDJSON stream. It bounds stalled
// writes by the request deadline (plus a small grace so the error
// trailer of an expired request can still flush): a client that stops
// reading cannot pin the handler (and its admission slot) much past its
// own timeout.
func (q *queryStream) begin() {
	if dl, ok := q.ctx.Deadline(); ok {
		q.rc.SetWriteDeadline(dl.Add(writeGrace))
	}
	h := q.w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Plan-Cache", map[bool]string{true: "hit", false: "miss"}[q.hit])
	h.Set("X-Query-Fingerprint", q.qd.fingerprint)
	h.Set("X-Out-Attrs", strings.Join(q.qd.outAttrs, ","))
	// Room for a full buffer plus the line that tips it over.
	q.buf = make([]byte, 0, flushBytes+512)
}

// resolveQuery snapshots a registered query, the exact dataset versions
// it binds and the plan entry of that pair under one read lock
// (registry invariant 4), and re-checks arities (re-registering a
// dataset may have changed one since the query was validated — surfaced
// as a client-addressable conflict instead of letting every request fail
// the compile with a 500). A false return means the response has already
// been written.
func (s *Server) resolveQuery(w http.ResponseWriter, name string) (*queryDef, *planEntry, bool) {
	var (
		snap     []*dataset
		versions []int
		e        *planEntry
	)
	conflict := -1
	s.mu.RLock()
	qd, ok := s.queries[name]
	if ok {
		snap = make([]*dataset, len(qd.atoms))
		versions = make([]int, len(qd.atoms))
		for i, a := range qd.atoms {
			ds := s.datasets[a.Dataset]
			if ds == nil {
				ok = false
				break
			}
			snap[i], versions[i] = ds, ds.version
			if len(a.Vars) != ds.arity && conflict < 0 {
				conflict = i
			}
		}
	}
	if ok && conflict < 0 {
		e = s.reg.lookup(dataKey(qd, versions), qd, snap, versions)
	}
	s.mu.RUnlock()
	if !ok {
		httpError(w, http.StatusNotFound, errNotFound, "unknown query %q (or a dataset it references was removed)", name)
		return nil, nil, false
	}
	if i := conflict; i >= 0 {
		httpError(w, http.StatusConflict, errConflict,
			"query %s atom %d binds %d vars but dataset %s is now version %d with arity %d; re-register the query",
			name, i, len(qd.atoms[i].Vars), qd.atoms[i].Dataset, snap[i].version, snap[i].arity)
		return nil, nil, false
	}
	return qd, e, true
}

// detached returns the context plan builds and delta patches run on:
// the server's lifetime bounded by MaxTimeout rather than the request's
// context — the caller that happens to run a build disconnecting or
// timing out must not fail every healthy request waiting on it — with
// the request's trace adopted, so the build's spans still land in it.
func (s *Server) detached(ctx context.Context) (context.Context, context.CancelFunc) {
	bctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.MaxTimeout)
	return obs.Adopt(bctx, ctx), cancel
}

// compilePlan returns e's handle, running the aggregate-independent
// repro.Compile unless a caller already did: the first half of
// warmPlan, in its own flight so every ranking warmed on one handle
// shares one compile.
func (s *Server) compilePlan(ctx context.Context, e *planEntry) (*repro.Prepared, bool, error) {
	ran, err := s.reg.run(ctx, &e.compile, func() error {
		bctx, cancel := s.detached(ctx)
		defer cancel()
		q := repro.NewQuery()
		for i, a := range e.qd.atoms {
			q.Rel(fmt.Sprintf("%s#%d", a.Dataset, i), a.Vars, e.snap[i].tuples, e.snap[i].weights)
		}
		p, err := repro.Compile(q, repro.WithContext(bctx))
		s.reg.built(e, p, err)
		return err
	})
	if err != nil {
		return nil, !ran, err
	}
	return e.p, !ran, nil
}

// warmPlan is /topk's prepare step: on top of compilePlan, one Run with
// the requested ranking forces that ranking's physical artefacts (T-DP
// instantiation or bag materialisation) into the handle's own cache —
// so every later request on this (handle, ranking) — any k, any variant
// — does zero preparation, and a query served under several rankings
// still plans and reduces its shape exactly once. Waiters that abandon
// the wait or inherit a failed build count as neither hit nor miss, so
// hits never exceed successfully served zero-preparation requests.
func (s *Server) warmPlan(ctx context.Context, e *planEntry, agg ranking.Aggregate) (*repro.Prepared, bool, error) {
	p, hit, err := s.compilePlan(ctx, e)
	ran := !hit
	if err == nil {
		ran, err = s.reg.run(ctx, &e.warm[slices.Index(ranking.All[:], agg)], func() error {
			bctx, cancel := s.detached(ctx)
			defer cancel()
			it, err := p.Run(repro.WithRanking(agg), repro.WithContext(bctx), repro.WithK(1))
			if err == nil {
				it.Close()
			}
			return err
		})
	}
	switch {
	case ran:
		s.reg.misses.Add(1)
	case err == nil:
		s.reg.hits.Add(1)
	}
	return p, !ran, err
}

// topkLine is one streamed NDJSON line: a result, then a trailer with
// done or error set. Trailers are encoded from it; result lines are
// appended by appendRow in exactly the bytes encoding/json writes for
// it.
type topkLine struct {
	Tuple  []any    `json:"tuple,omitempty"`
	Weight *float64 `json:"weight,omitempty"`
	Done   bool     `json:"done,omitempty"`
	Count  *int     `json:"count,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// streamTopK opens the iterator on p and writes its rows and trailer.
func (s *Server) streamTopK(q *queryStream, p *repro.Prepared, variant repro.Variant) {
	it, err := p.Run(
		repro.WithRanking(q.agg),
		repro.WithVariant(variant),
		repro.WithK(q.limit),
		repro.WithContext(q.ctx),
	)
	if err != nil {
		httpError(q.w, http.StatusInternalServerError, errInternal, "run %s: %v", q.qd.name, err)
		return
	}
	defer it.Close()
	// The write deadline is set before the tightening is armed so the
	// tighter cancellation deadline always wins.
	q.begin()
	// Disconnect, deadline and shutdown all reach the iterator through
	// q.ctx, which every Next polls. What the context cannot do is
	// unblock a handler stalled in a write to a non-reading client, so
	// its end also tightens the write deadline (net.Conn deadlines are
	// safe to set concurrently with writes): the slot frees promptly and
	// graceful shutdown does not wait out the full per-request write
	// budget. The handler stops the tightening before returning, or
	// waits for one already running: the ResponseWriter must not be
	// touched after ServeHTTP returns, or the deadline could land on a
	// recycled keep-alive connection.
	tightened := make(chan struct{})
	stop := context.AfterFunc(q.ctx, func() {
		defer close(tightened)
		s.met.watchdogCloses.Inc()
		q.rc.SetWriteDeadline(time.Now().Add(cancelWriteGrace))
	})
	defer func() {
		if !stop() {
			<-tightened
		}
	}()

	ttfH, ttkH := s.met.ttf[q.agg], s.met.ttk[q.agg]
	for {
		res, ok := it.Next()
		if !ok {
			err = it.Err()
			break
		}
		if q.count == 0 {
			ttfH.Observe(s.now().Sub(q.start).Seconds())
		}
		if err = q.row(res.Tuple, res.Weight); err != nil {
			break
		}
		if q.count == q.limit {
			ttkH.Observe(s.now().Sub(q.start).Seconds())
		}
	}
	if q.werr != nil {
		// Client gone; the deferred Close releases everything.
		return
	}
	trailer := topkLine{Count: &q.count}
	if err != nil {
		trailer.Error = err.Error()
	} else {
		trailer.Done = true
	}
	q.end(trailer)
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	Datasets int `json:"datasets"`
	Queries  int `json:"queries"`
	Registry struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Size      int   `json:"size"`
		Capacity  int   `json:"capacity"`
	} `json:"registry"`
	Requests    int64 `json:"requests"`
	Rejected    int64 `json:"rejected"`
	Inflight    int64 `json:"inflight"`
	MaxInflight int   `json:"max_inflight"`
	// Patches counts applied dataset deltas (PATCH /v1/datasets/{name});
	// PlansPatched counts warm registry handles those deltas advanced in
	// place via ApplyDelta (each kept serving without a cold prepare).
	Patches      int64     `json:"patches"`
	PlansPatched int64     `json:"plans_patched"`
	Plans        []regPlan `json:"plans"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	s.mu.RLock()
	resp.Datasets = len(s.datasets)
	resp.Queries = len(s.queries)
	s.mu.RUnlock()
	resp.Registry.Hits = s.reg.hits.Load()
	resp.Registry.Misses = s.reg.misses.Load()
	resp.Registry.Evictions = s.reg.evicted.Load()
	resp.Registry.Size = s.reg.size()
	resp.Registry.Capacity = s.cfg.RegistryCapacity
	resp.Requests = s.met.queryRequests.Value()
	resp.Rejected = s.met.rejected.Value()
	resp.Inflight = s.met.inflight.Value()
	resp.MaxInflight = s.cfg.MaxInflight
	resp.Patches = s.met.patches.Value()
	resp.PlansPatched = s.met.plansPatched.Value()
	resp.Plans = s.reg.snapshot()
	writeJSON(w, &resp)
}
