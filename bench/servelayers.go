package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/server"
)

// discard is a ResponseWriter that drops the body: the handler runs
// its whole path — admission, registry, enumeration, NDJSON encoding,
// per-line Flush — and nothing reaches a socket.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(code int)        { d.status = code }
func (d *discard) Flush()                      {}

// Repetition counts of the single-client serving replay, per class.
const (
	serveReps     = 200  // loopback / handler / facade samples at k=10 and k=1000
	serveRepsK100 = 1000 // at k=100, so the p99 has ten samples beyond it
	patchReps     = 10   // append+delete pairs, over loopback and handler-only each
	allocReps     = 100  // handler-only calls the per-request allocation count averages over
)

// serverSection replays the serving workloads with one client, each
// request three ways: over loopback, through Handler().ServeHTTP into a
// discarding writer, and as the same Run on a facade handle compiled
// here from the same tuples. The differences are the socket's and the
// server's shares.
func (s *suite) serverSection() error {
	ctx := s.ctx
	var tm setupTimes
	st, err := setupServe(ctx, s.g, &tm, true)
	if err != nil {
		return err
	}
	defer st.close()
	c := newClient(ctx, st, 0)
	defer c.closeIdle()

	// Ingest and cold request, on datasets of their own so the warm
	// plans stay warm: a copy of path4's first relation, and a two-atom
	// path over it.
	r0 := st.path.rels[0]
	d := timed(func() {
		err = postJSON(ctx, c.hc, st.ts.URL+"/v1/datasets/ingest_probe", map[string]any{"tuples": r0.Tuples, "weights": r0.Weights})
	})
	if err != nil {
		return err
	}
	s.add("server.ingest_ms", ms(d))
	err = postJSON(ctx, c.hc, st.ts.URL+"/v1/queries/q_probe", map[string]any{"atoms": []map[string]any{
		{"dataset": "ingest_probe", "vars": []string{"A", "B"}}, {"dataset": pathDataset(1), "vars": []string{"B", "C"}},
	}})
	if err != nil {
		return err
	}
	probe := readOp{"q_probe", aggSum, 10}
	c.urls[probe] = fmt.Sprintf("%s/v1/query/q_probe/topk?k=10&agg=sum", st.ts.URL)
	d = timed(func() { err = c.get(c.urls[probe]) })
	if err != nil {
		return err
	}
	s.add("server.cold_topk_ms", ms(d))

	before, err := st.registry(ctx)
	if err != nil {
		return err
	}
	facadePlan := s.enumPlans[0] // path4 through the facade: the plan q_path compiles to
	h := st.srv.Handler()
	noObs, err := setupNoObs(s, st)
	if err != nil {
		return err
	}
	defer noObs.Close()

	allocsK10 := 0.0
	loop := map[int]float64{}
	hand := map[int]float64{}
	fac := map[int]float64{}
	for _, k := range []int{10, 100, 1000} {
		op := readOp{"q_path", aggSum, k}
		reps := serveReps
		if k == 100 {
			reps = serveRepsK100
		}
		// The three ways (and at k=10 the uninstrumented server) take
		// turns request by request, so a GC cycle or a noisy neighbour
		// lands on all of them alike and the ratios stay meaningful.
		var lo, first, ha, fa, bare []float64
		w := &discard{h: http.Header{}}
		handle := func(h http.Handler) (float64, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[op], nil)
			if err != nil {
				return 0, err
			}
			clear(w.h)
			w.status = 0
			t0 := time.Now()
			h.ServeHTTP(w, req)
			d := us(time.Since(t0))
			if w.status != 0 && w.status != http.StatusOK {
				return 0, fmt.Errorf("handler-only %v: status %d", op, w.status)
			}
			return d, nil
		}
		for i := 0; i < reps; i++ {
			r := c.read(op, false, i == 0)
			s.out.op(r.err, "replay "+op.String())
			if r.err != nil {
				return fmt.Errorf("serving replay: %v: %w", op, r.err)
			}
			lo = append(lo, us(r.total))
			first = append(first, us(r.first))
			d, err := handle(h)
			if err != nil {
				return err
			}
			ha = append(ha, d)
			if k == 10 {
				if d, err = handle(noObs.Handler()); err != nil {
					return err
				}
				bare = append(bare, d)
			}
			t0 := time.Now()
			it, err := facadePlan.Run(repro.WithRanking(repro.SumCost), repro.WithVariant(core.Lazy), repro.WithK(k), repro.WithContext(ctx))
			if err != nil {
				return err
			}
			var stm stamps
			stm, s.buf, err = drain(it, t0, s.buf)
			if err != nil {
				return err
			}
			fa = append(fa, us(stm.last))
		}
		// Objects allocated per handler call, counted on its own so the
		// other two ways' allocations stay out of it.
		runtime.GC()
		var handleErr error
		_, _, mallocs := measure(func() {
			for i := 0; i < allocReps && handleErr == nil; i++ {
				_, handleErr = handle(h)
			}
		})
		if handleErr != nil {
			return handleErr
		}
		loop[k], hand[k], fac[k] = median(lo), median(ha), median(fa)
		tag := fmt.Sprintf("k%d", k)
		s.add("server.loopback_us."+tag, loop[k])
		s.add("server.handler_us."+tag, hand[k])
		s.add("server.facade_us."+tag, fac[k])
		perReq := float64(mallocs) / allocReps
		switch k {
		case 10:
			s.add("server.allocs_per_req.k10", perReq)
			s.add("server.obs_overhead_pct", 100*(hand[k]-median(bare))/median(bare))
			allocsK10 = perReq
		case 100:
			s.add("server.socket_share.k100", 1-hand[k]/loop[k])
			s.add("server.req_p99_ms.k100", pct(lo, 0.99)/1e3)
		case 1000:
			s.add("server.encode_share.k1000", (hand[k]-fac[k])/hand[k])
			s.add("server.ttfb_us.k1000", median(first))
			s.add("server.allocs_per_row", (perReq-allocsK10)/990)
		}
	}
	after, err := st.registry(ctx)
	if err != nil {
		return err
	}
	hits, misses := after.Registry.Hits-before.Registry.Hits, after.Registry.Misses-before.Registry.Misses
	s.add("server.registry_hit_ratio", float64(hits)/float64(max(1, hits+misses)))

	// Writes: append and delete the scripted rows of the first atom's
	// dataset, over loopback (each followed by one k=100 read) and
	// through the handler alone.
	script := st.scripts[0]
	var patchLoop, patchHand, postRead, apply []float64
	plansPatched := 0.0
	for i := 0; i < 2*patchReps; i++ {
		d, err := c.patchOnce(script)
		s.out.op(err, "replay patch")
		if err != nil {
			return err
		}
		patchLoop = append(patchLoop, ms(d))
		r := c.read(readOp{"q_path", aggSum, 100}, false, true)
		s.out.op(r.err, "replay post-patch read")
		if r.err == nil {
			postRead = append(postRead, us(r.total))
		}
	}
	for i := 0; i < 2*patchReps; i++ {
		body := script.appendBody
		if script.appended {
			body = script.deleteBody
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPatch, st.ts.URL+"/v1/datasets/"+script.dataset, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		w := &capture{discard: discard{h: http.Header{}}}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		patchHand = append(patchHand, ms(time.Since(t0)))
		var reply struct {
			PlansPatched float64 `json:"plans_patched"`
		}
		if err := json.Unmarshal(w.body.Bytes(), &reply); err != nil || (w.status != 0 && w.status != http.StatusOK) {
			return fmt.Errorf("handler-only PATCH: status %d, body %q", w.status, w.body.Bytes())
		}
		plansPatched = reply.PlansPatched
		script.appended = !script.appended
	}
	rel := st.path.rels[0].Name
	for i := 0; i < patchReps; i++ {
		for _, delta := range []repro.Delta{
			{Rel: rel, Append: script.rows, AppendWeights: script.weights},
			{Rel: rel, Delete: script.rows},
		} {
			d := timed(func() { err = facadePlan.ApplyDelta([]repro.Delta{delta}, repro.WithContext(ctx)) })
			if err != nil {
				return err
			}
			apply = append(apply, ms(d))
		}
	}
	s.add("server.patch_ms", median(patchLoop))
	s.add("server.plans_patched", plansPatched)
	s.add("server.post_patch_topk_us.k100", median(postRead))

	// Shares of the serving workloads' time, from the medians above
	// weighted by the read mix (k = 10, 100, 1000 in equal parts; the
	// one read to exhaustion in 73 is left out), plus one PATCH per
	// deltaReadsPerPatch reads on serve_delta.
	var lo, ha, fa float64
	for _, k := range []int{10, 100, 1000} {
		lo, ha, fa = lo+loop[k]/1e3, ha+hand[k]/1e3, fa+fac[k]/1e3
	}
	s.shares["serve_warm"] = map[string]float64{"repro": fa / lo, "server": (ha - fa) / lo, "net": (lo - ha) / lo}
	reads := float64(deltaReadsPerPatch) / 3
	lo, ha, fa = lo*reads+median(patchLoop), ha*reads+median(patchHand), fa*reads+median(apply)
	s.shares["serve_delta"] = map[string]float64{"repro": fa / lo, "server": (ha - fa) / lo, "net": (lo - ha) / lo}

	// What recording a span around each request costs: the same k=10
	// reads with and without a tracer, interleaved.
	tr := newTracer()
	tr.mem = false
	var plain, spanned []float64
	op := readOp{"q_path", aggSum, 10}
	for i := 0; i < serveReps; i++ {
		r := c.read(op, false, false)
		s.out.op(r.err, "replay "+op.String())
		plain = append(plain, us(r.total))
		tr.nextOp()
		tr.in("net", "GET "+op.String(), func() { r = c.read(op, false, false) })
		s.out.op(r.err, "replay "+op.String())
		spanned = append(spanned, us(tr.spans[tr.last()].dur()))
	}
	ov := 100 * (median(spanned) - median(plain)) / median(plain)
	s.overhead["serve_warm"] = append(s.overhead["serve_warm"], ov)
	s.overhead["serve_delta"] = append(s.overhead["serve_delta"], ov)
	s.spans = append(s.spans, tr.spans...)
	return nil
}

// capture is discard that keeps the body, for the small PATCH reply.
type capture struct {
	discard
	body bytes.Buffer
}

func (c *capture) Write(b []byte) (int, error) { return c.body.Write(b) }

// get issues a GET and discards the body; any non-200 is an error.
func (c *client) get(url string) error {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sink bytes.Buffer
	if _, err := sink.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, sink.Bytes())
	}
	return nil
}

// setupNoObs builds a second server with the observability middleware
// stripped, holding the same datasets and queries and a warm q_path
// plan, driven only through its handler.
func setupNoObs(s *suite, st *serveState) (*server.Server, error) {
	srv := server.New(server.Config{DisableObservability: true})
	h := srv.Handler()
	do := func(method, path string, payload any) error {
		var body bytes.Buffer
		if payload != nil {
			if err := json.NewEncoder(&body).Encode(payload); err != nil {
				return err
			}
		}
		req, err := http.NewRequestWithContext(s.ctx, method, "http://bench"+path, &body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		w := &capture{discard: discard{h: http.Header{}}}
		h.ServeHTTP(w, req)
		if w.status != 0 && w.status != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", method, path, w.status, w.body.Bytes())
		}
		return nil
	}
	if err := st.register(func(path string, payload any) error { return do(http.MethodPost, path, payload) }); err != nil {
		srv.Close()
		return nil, err
	}
	if err := do(http.MethodGet, "/v1/query/q_path/topk?k=10&agg=sum", nil); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}
