package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/workload"
)

// Serving workloads run internal/server in-process behind a loopback
// listener and drive it closed-loop: each client sends its next request
// only when the previous reply has been read to its last byte.

const (
	serveClients = 2
	// mixCycles is how many sweeps of the 12 (query, agg, k) reads a
	// client makes before its one read-to-exhaustion of q_tri.
	mixCycles = 6
	// deltaReadsPerPatch reads follow every PATCH on serve_delta.
	deltaReadsPerPatch = 9
	// deltaRows is the size of every appended or deleted batch.
	deltaRows = 8
	// bodyCheckEvery: every n-th read body is parsed and its weights
	// compared with the oracle; every body is checked for status, cache
	// header and trailer.
	bodyCheckEvery = 50
	// fullK asks for more results than any fixture has: a read to
	// exhaustion.
	fullK = 1 << 30
	// servePassOps is the size of a serving "pass" for alloc_mb.
	servePassOps = 1000
)

// readOp is one class of read request. k = 0 reads to exhaustion.
type readOp struct {
	query, agg string
	k          int
}

func (r readOp) String() string { return fmt.Sprintf("%s agg=%s k=%d", r.query, r.agg, r.k) }

// readMix is the deterministic read cycle both serving workloads share:
// one read of q_tri to exhaustion, then mixCycles sweeps of query × agg
// × k∈{10,100,1000}.
func readMix() []readOp {
	ops := []readOp{{"q_tri", aggSum, 0}}
	for c := 0; c < mixCycles; c++ {
		for _, k := range []int{10, 100, 1000} {
			for _, agg := range []string{aggSum, aggMax} {
				for _, q := range []string{"q_path", "q_tri"} {
					ops = append(ops, readOp{q, agg, k})
				}
			}
		}
	}
	return ops
}

// patchScript is the scripted writes to one dataset: the same deltaRows
// rows are appended to it, then deleted, alternately. The rows are
// drawn from the live join domain, collide with no existing row (a
// delete removes by value, so a collision would take an original row
// with it), and are light enough to enter the top of the ranking.
type patchScript struct {
	dataset    string
	appendBody []byte
	deleteBody []byte
	rows       []relation.Tuple
	weights    []float64
	appended   bool // current state of the dataset; owned by the client
}

type serveState struct {
	delta bool
	srv   *server.Server
	ts    *httptest.Server
	path  *fixture
	tri   *fixture
	// pathOracle[a][b] is q_path's oracle with the scripted rows
	// appended to the first atom's dataset (a = 1) and to the last
	// atom's (b = 1). serve_warm only fills [0][0].
	pathOracle [2][2]*oracle
	triOracle  *oracle
	scripts    [2]*patchScript
}

// newOpsRand is the seeded stream the PATCH rows are drawn from.
func newOpsRand(seed uint64) *workload.Rand { return workload.NewRand(subSeed(seed, fxServeOps)) }

func pathDataset(i int) string { return fmt.Sprintf("path_r%d", i+1) }

func setupServe(ctx context.Context, g gen, tm *setupTimes, delta bool) (*serveState, error) {
	st := &serveState{delta: delta}
	t := time.Now()
	st.path = g.path4()
	st.tri = g.cycleOn("triangle", 3, 600, 9000, fxServeTri)
	if delta {
		rng := newOpsRand(g.seed)
		st.scripts[0] = newPatchScript(st.path, 0, rng)
		st.scripts[1] = newPatchScript(st.path, len(st.path.rels)-1, rng)
	}
	tm.fixture += time.Since(t)

	t = time.Now()
	st.triOracle = solveOracle(st.tri, true)
	st.pathOracle[0][0] = solveOracle(st.path, true)
	if delta {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if a+b > 0 {
					st.pathOracle[a][b] = solveOracle(st.pathWith(a == 1, b == 1), true)
				}
			}
		}
	}
	tm.oracle += time.Since(t)

	st.srv = server.New(server.Config{})
	st.ts = httptest.NewServer(st.srv.Handler())
	hc := st.ts.Client()
	err := st.register(func(path string, payload any) error { return postJSON(ctx, hc, st.ts.URL+path, payload) })
	if err != nil {
		st.close()
		return nil, err
	}
	// One cold request per (query, agg) builds and warms every plan the
	// timed window reads.
	c := newClient(ctx, st, 0)
	defer c.closeIdle()
	for _, q := range []string{"q_path", "q_tri"} {
		for _, agg := range []string{aggSum, aggMax} {
			r := c.read(readOp{q, agg, topK}, true, true)
			if r.err != nil {
				st.close()
				return nil, fmt.Errorf("cold %s %s: %w", q, agg, r.err)
			}
		}
	}
	return st, nil
}

// register uploads the four q_path datasets and the q_tri edge dataset
// and registers both queries, through whatever post reaches the server.
func (st *serveState) register(post func(path string, payload any) error) error {
	var pathAtoms, triAtoms []map[string]any
	for i, r := range st.path.rels {
		if err := post("/v1/datasets/"+pathDataset(i), map[string]any{"tuples": r.Tuples, "weights": r.Weights}); err != nil {
			return err
		}
		pathAtoms = append(pathAtoms, map[string]any{"dataset": pathDataset(i), "vars": st.path.edges[i].Vars})
	}
	e := st.tri.rels[0]
	if err := post("/v1/datasets/tri_e", map[string]any{"tuples": e.Tuples, "weights": e.Weights}); err != nil {
		return err
	}
	for _, ed := range st.tri.edges {
		triAtoms = append(triAtoms, map[string]any{"dataset": "tri_e", "vars": ed.Vars})
	}
	if err := post("/v1/queries/q_path", map[string]any{"atoms": pathAtoms}); err != nil {
		return err
	}
	return post("/v1/queries/q_tri", map[string]any{"atoms": triAtoms})
}

func (st *serveState) close() {
	st.ts.Close()
	st.srv.Close()
}

// pathWith is the path4 fixture with the clients' rows appended to the
// first and/or last relation: the dataset states serve_delta moves
// through.
func (st *serveState) pathWith(first, last bool) *fixture {
	f := &fixture{name: st.path.name, edges: st.path.edges, rels: append([]*relation.Relation(nil), st.path.rels...)}
	add := func(i int, s *patchScript) {
		r := f.rels[i].Clone()
		for j, t := range s.rows {
			r.AddTuple(t, s.weights[j])
		}
		f.rels[i] = r
	}
	if first {
		add(0, st.scripts[0])
	}
	if last {
		add(len(f.rels)-1, st.scripts[1])
	}
	return f
}

func newPatchScript(path *fixture, rel int, rng *workload.Rand) *patchScript {
	r := path.rels[rel]
	have := map[[2]relation.Value]bool{}
	for _, t := range r.Tuples {
		have[[2]relation.Value{t[0], t[1]}] = true
	}
	s := &patchScript{dataset: pathDataset(rel)}
	for len(s.rows) < deltaRows {
		src, dst := r.Tuples[rng.Intn(r.Len())], r.Tuples[rng.Intn(r.Len())]
		key := [2]relation.Value{src[0], dst[1]}
		if have[key] {
			continue
		}
		have[key] = true
		s.rows = append(s.rows, relation.Tuple{key[0], key[1]})
		s.weights = append(s.weights, rng.Float64()*0.1)
	}
	var err error
	if s.appendBody, err = json.Marshal(map[string]any{"append": s.rows, "append_weights": s.weights}); err != nil {
		panic(err)
	}
	if s.deleteBody, err = json.Marshal(map[string]any{"delete": s.rows}); err != nil {
		panic(err)
	}
	return s
}

func postJSON(ctx context.Context, hc *http.Client, url string, payload any) error {
	b, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // diagnostic text only
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
	return nil
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	ctx  context.Context
	st   *serveState
	id   int
	hc   *http.Client
	tr   *http.Transport
	urls map[readOp]string
	buf  []byte

	trailer []byte
	reads   int
	// latency samples in ms, by class
	first, k10, k100, k1000, full, patch []float64
	ops                                  int64
}

func newClient(ctx context.Context, st *serveState, id int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	c := &client{ctx: ctx, st: st, id: id, tr: tr, hc: &http.Client{Transport: tr}, urls: map[readOp]string{}, buf: make([]byte, 0, 1<<17)}
	for _, op := range readMix() {
		k := op.k
		if k == 0 {
			k = fullK
		}
		c.urls[op] = fmt.Sprintf("%s/v1/query/%s/topk?k=%d&agg=%s", st.ts.URL, op.query, k, op.agg)
	}
	return c
}

func (c *client) closeIdle() { c.tr.CloseIdleConnections() }

type readResult struct {
	first, total time.Duration
	err          error
}

// read issues one GET /topk and reads the body to its last byte. It
// checks status, the X-Plan-Cache header (unless cold) and the trailer;
// with parse it also decodes every row and compares the weights with
// the oracle.
func (c *client) read(op readOp, cold, parse bool) (r readResult) {
	url, ok := c.urls[op]
	if !ok {
		r.err = fmt.Errorf("no url for %v", op)
		return r
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, url, nil)
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	buf := c.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if r.first == 0 && n > 0 && bytes.IndexByte(buf, '\n') >= 0 {
			r.first = time.Since(t0)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			return r
		}
	}
	r.total = time.Since(t0)
	c.buf = buf
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf))
		return r
	}
	if got := resp.Header.Get("X-Plan-Cache"); !cold && got != "hit" {
		r.err = fmt.Errorf("X-Plan-Cache %q, want hit", got)
		return r
	}
	o := c.oracleFor(op)
	want := int64(op.k)
	if op.k == 0 || o.count < want {
		want = o.count
	}
	// Built in place: this runs once per request on a CPU the server
	// under test shares.
	c.trailer = append(strconv.AppendInt(append(c.trailer[:0], `{"done":true,"count":`...), want, 10), "}\n"...)
	trailer := c.trailer
	if !bytes.HasSuffix(buf, trailer) {
		tail := buf
		if len(tail) > 80 {
			tail = tail[len(tail)-80:]
		}
		r.err = fmt.Errorf("trailer %q, want %q", tail, trailer)
		return r
	}
	if parse {
		r.err = c.checkBody(op, buf)
	}
	return r
}

// oracleFor picks the oracle a read must agree with: q_path's depends
// on which of the writer's two row sets are currently appended, which
// the writer knows because its own PATCHes and reads are sequential and
// nobody else reads q_path on serve_delta.
func (c *client) oracleFor(op readOp) *oracle {
	if op.query == "q_tri" {
		return c.st.triOracle
	}
	a, b := 0, 0
	if c.st.delta {
		if c.st.scripts[0].appended {
			a = 1
		}
		if c.st.scripts[1].appended {
			b = 1
		}
	}
	return c.st.pathOracle[a][b]
}

type bodyLine struct {
	Weight *float64 `json:"weight"`
	Done   bool     `json:"done"`
	Error  string   `json:"error"`
}

func (c *client) checkBody(op readOp, body []byte) error {
	var weights []float64
	n := int64(0)
	monotone := true
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		var l bodyLine
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("body line %q: %w", line, err)
		}
		if l.Weight == nil {
			continue
		}
		n++
		if len(weights) > 0 && n <= oracleK && *l.Weight < weights[len(weights)-1] {
			monotone = false
		}
		if n <= oracleK {
			weights = append(weights, *l.Weight)
		}
	}
	return c.oracleFor(op).verify(op.agg, weights, n, op.k, monotone)
}

// patchOnce flips one scripted dataset between its base and appended
// state and returns the PATCH latency.
func (c *client) patchOnce(s *patchScript) (time.Duration, error) {
	body, wantKey := s.appendBody, "appended"
	if s.appended {
		body, wantKey = s.deleteBody, "deleted"
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPatch, c.st.ts.URL+"/v1/datasets/"+s.dataset, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("PATCH %s: status %d: %s", s.dataset, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var reply map[string]any
	if err := json.Unmarshal(raw, &reply); err != nil {
		return d, fmt.Errorf("PATCH %s reply: %w", s.dataset, err)
	}
	if got, _ := reply[wantKey].(float64); int(got) != deltaRows {
		return d, fmt.Errorf("PATCH %s: %s=%v, want %d", s.dataset, wantKey, reply[wantKey], deltaRows)
	}
	if got, _ := reply["plans_patched"].(float64); got < 1 {
		return d, fmt.Errorf("PATCH %s: plans_patched=%v, want the warm q_path plan advanced in place", s.dataset, reply["plans_patched"])
	}
	s.appended = !s.appended
	return d, nil
}

// loop is one client's closed loop until the deadline. Clients start at
// different points of the read cycle so they do not move in lockstep.
//
// On serve_delta client 0 is the writer: it opens every cycle of
// 1+deltaReadsPerPatch ops with a PATCH, alternating between the first
// and the last atom's dataset of q_path (the root and a leaf of the
// join tree), and then reads from the full mix; client 1 reads only
// q_tri, whose dataset is never patched. So a write always has reads
// running beside it, but never a read of the query being patched: the
// server re-keys a patched plan after it bumps the dataset version, and
// a q_path read landing in between builds cold and can leave a
// per-ranking entry bound to a handle later PATCHes no longer reach
// (see README, "Findings"), which would make answers depend on timing.
func (c *client) loop(o *output, deadline time.Time) {
	mix := readMix()
	if c.st.delta && c.id != 0 {
		var tri []readOp
		for _, op := range mix {
			if op.query == "q_tri" {
				tri = append(tri, op)
			}
		}
		mix = tri
	}
	writer := c.st.delta && c.id == 0
	pos := c.id * len(mix) / serveClients
	sincePatch, patches := deltaReadsPerPatch, 0
	for time.Now().Before(deadline) {
		if writer && sincePatch == deltaReadsPerPatch {
			sincePatch = 0
			s := c.st.scripts[patches%len(c.st.scripts)]
			patches++
			d, err := c.patchOnce(s)
			o.op(err, "patch "+s.dataset)
			c.ops++
			if err == nil {
				c.patch = append(c.patch, ms(d))
			}
			continue
		}
		sincePatch++
		op := mix[pos]
		pos = (pos + 1) % len(mix)
		c.reads++
		r := c.read(op, false, c.reads%bodyCheckEvery == 0)
		o.op(r.err, op.String())
		c.ops++
		if r.err != nil {
			continue // a failed op misses every latency figure
		}
		c.first = append(c.first, ms(r.first))
		switch op.k {
		case 10:
			c.k10 = append(c.k10, ms(r.total))
		case 100:
			c.k100 = append(c.k100, ms(r.total))
		case 1000:
			c.k1000 = append(c.k1000, ms(r.total))
		case 0:
			c.full = append(c.full, ms(r.total))
		}
	}
}

type registryCounts struct {
	Registry struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"registry"`
}

func (st *serveState) registry(ctx context.Context) (registryCounts, error) {
	var rc registryCounts
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.ts.URL+"/v1/stats", nil)
	if err != nil {
		return rc, err
	}
	resp, err := st.ts.Client().Do(req)
	if err != nil {
		return rc, err
	}
	defer resp.Body.Close()
	return rc, json.NewDecoder(resp.Body).Decode(&rc)
}

func (st *serveState) run(ctx context.Context, o *output, deadline time.Time) {
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(ctx, st, i)
		defer clients[i].closeIdle()
	}
	before, err := st.registry(ctx)
	if err != nil {
		o.fail(fmt.Errorf("stats: %w", err))
	}
	runtime.GC()
	window, allocMB, _ := measure(func() {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.loop(o, deadline)
			}()
		}
		wg.Wait()
	})

	after, err := st.registry(ctx)
	if err != nil {
		o.fail(fmt.Errorf("stats: %w", err))
	}
	misses := after.Registry.Misses - before.Registry.Misses
	var missErr error
	if misses != 0 {
		missErr = fmt.Errorf("%d registry misses in the timed window, want 0", misses)
	}
	o.op(missErr, "registry")
	hits := after.Registry.Hits - before.Registry.Hits
	o.detail("server.registry_hit_ratio", point(float64(hits)/float64(max(1, hits+misses)), int(hits+misses)))

	// Return every patched dataset to its base state, then compare one
	// final read per (query, agg) with the oracle of that state.
	for _, s := range st.scripts {
		if s != nil && s.appended {
			_, err := clients[0].patchOnce(s)
			o.op(err, "final patch")
		}
	}
	for _, q := range []string{"q_path", "q_tri"} {
		for _, agg := range []string{aggSum, aggMax} {
			op := readOp{q, agg, topK}
			r := clients[0].read(op, false, true)
			o.op(r.err, "final "+op.String())
		}
	}

	var first, k10, k100, k1000, full, patch []float64
	ops := int64(0)
	for _, c := range clients {
		first = append(first, c.first...)
		k10 = append(k10, c.k10...)
		k100 = append(k100, c.k100...)
		k1000 = append(k1000, c.k1000...)
		full = append(full, c.full...)
		patch = append(patch, c.patch...)
		ops += c.ops
	}
	o.e2e("ttf_ms", summarize(first))
	o.e2e("tt10_ms", summarize(k10))
	o.e2e("tt100_ms", summarize(k100))
	o.e2e("ttk_ms", summarize(k1000))
	o.e2e("ttl_ms", summarize(full))
	o.e2e("qps", point(float64(ops)/window.Seconds(), int(ops)))
	o.e2e("alloc_mb", point(allocMB/float64(ops)*servePassOps, int(ops)))
	o.e2e("live_heap_mb", point(liveHeapMB(st), 1))
	o.detail("req_k100_p95_ms", point(pct(k100, 0.95), len(k100)))
	o.detail("req_k100_p99_ms", point(pct(k100, 0.99), len(k100)))
	if st.delta {
		o.detail("patch_p50_ms", summarize(patch))
	}
}
