package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/yannakakis"
)

// The traced run replays every workload layer by layer and times each
// package's public functions from here. One repetition runs three
// sections — warm enumeration (enum_deep's fixtures), cold preparation
// (cold_prepare's) and serving (serve_*'s server) — and the run repeats
// them while the window lasts, reporting each per-layer metric as the
// median over repetitions. The metrics do not depend on -workload,
// except share.<layer> and bench.trace_overhead_pct, which describe
// the workload named.

type suite struct {
	ctx     context.Context
	g       gen
	out     *output
	samples map[string][]float64
	spans   []span // the last repetition's, for -out

	enumFx, coldFx []*fixture
	enumOr, coldOr []*oracle
	enumPlans      []*repro.Prepared // facade plans, warm
	buf            []float64

	// per workload: layer → share of replay time (last repetition), and
	// traced vs untraced time of the same ops.
	shares   map[string]map[string]float64
	overhead map[string][]float64
}

func (s *suite) add(name string, v float64) { s.samples[name] = append(s.samples[name], v) }

// measure runs f once and reports its wall time, the bytes and the
// objects it allocated; the MemStats reads sit outside the clock.
func measure(f func()) (d time.Duration, allocMB float64, mallocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, m1.Mallocs - m0.Mallocs
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// heapAfterGC is HeapAlloc after a forced collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func traced(ctx context.Context, c config, o *output, window time.Duration) error {
	s := &suite{
		ctx: ctx, g: c.gen(), out: o, samples: map[string][]float64{}, buf: make([]float64, 0, oracleK),
		shares: map[string]map[string]float64{}, overhead: map[string][]float64{},
	}
	s.enumFx, s.coldFx = s.g.enumFixtures(), s.g.coldFixtures()
	for _, f := range s.enumFx {
		s.enumOr = append(s.enumOr, solveOracle(f, false))
		p, err := repro.Compile(f.query())
		if err != nil {
			return err
		}
		if _, err := p.TopK(topK); err != nil {
			return err
		}
		s.enumPlans = append(s.enumPlans, p)
	}
	for _, f := range s.coldFx {
		s.coldOr = append(s.coldOr, solveOracle(f, false))
	}
	start := time.Now()
	for rep := 0; ; rep++ {
		t0 := time.Now()
		s.spans = s.spans[:0]
		for _, sec := range []struct {
			name string
			run  func() error
		}{{"enum", s.enumSection}, {"cold", s.coldSection}, {"server", s.serverSection}} {
			t := time.Now()
			if err := sec.run(); err != nil {
				return fmt.Errorf("%s section: %w", sec.name, err)
			}
			o.detail("bench.section_s."+sec.name, point(time.Since(t).Seconds(), 1))
		}
		if time.Since(start)+time.Since(t0) > window {
			break
		}
	}
	for name, xs := range s.samples {
		o.layer(name, summarize(xs))
	}
	for _, layer := range layers {
		o.layer("share."+layer, point(100*s.shares[c.workload][layer], 1))
	}
	o.layer("bench.trace_overhead_pct", summarize(s.overhead[c.workload]))
	o.Spans = s.spans
	return nil
}

// layers are the repository's packages the replay attributes time to,
// plus "repro" (facade and replay glue not inside any layer call) and
// "net" (loopback socket and HTTP client).
var layers = []string{"relation", "catalog", "hypergraph", "yannakakis", "dp", "wcoj", "decomp", "core", "repro", "server", "net"}

// setShares turns a replay's spans into per-layer shares of its time.
func (s *suite) setShares(workload string, spans []span) {
	total := rootTime(spans)
	m := map[string]float64{}
	for layer, d := range selfTimes(spans) {
		m[layer] = float64(d) / float64(total)
	}
	s.shares[workload] = m
}

// ---- warm enumeration ----

func (s *suite) enumSection() error {
	ctx := s.ctx
	tr := newTracer()
	var ls []*layered
	for _, f := range s.enumFx {
		tr.nextOp()
		l, err := buildLayered(ctx, tr, f, true)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		ls = append(ls, l)
	}
	calls := enumTopKCalls

	// The same pass through the facade, untraced, before and after the
	// traced one (the overhead is taken against their mean, so heap
	// growth during the first does not pass for negative overhead).
	facadePass := func() time.Duration {
		runtime.GC()
		return timed(func() {
			for i, p := range s.enumPlans {
				for c := 0; c <= calls; c++ {
					k := topK
					if c == calls {
						k = 0
					}
					t0 := time.Now()
					it, err := p.Run(repro.WithK(k))
					if err != nil {
						s.out.fail(err)
						continue
					}
					var st stamps
					st, s.buf, err = drain(it, t0, s.buf)
					s.out.op(checkRun(s.enumOr[i], aggSum, st, s.buf, k, err), "facade "+s.enumFx[i].name)
				}
			}
		})
	}
	facade := facadePass()

	runtime.GC()
	passStart := len(tr.spans)
	for i, l := range ls {
		for c := 0; c < calls; c++ {
			tr.nextOp()
			_, s.buf = l.enumerate(ctx, tr, s.enumOr[i], s.out, topK, s.buf)
		}
		tr.nextOp()
		st, _ := l.enumerate(ctx, tr, s.enumOr[i], s.out, 0, s.buf)
		if l.f.name == "c4" {
			s.add("core.merge_ttl_ms.c4", ms(st.last))
		}
	}
	pass := rootTime(tr.spans[passStart:])
	facade = (facade + facadePass()) / 2
	s.overhead["enum_deep"] = append(s.overhead["enum_deep"], 100*(float64(pass)-float64(facade))/float64(facade))
	// enum_deep times passes over warm plans; building them is set-up,
	// so its shares are taken over the pass alone.
	s.setShares("enum_deep", tr.spans[passStart:])
	s.spans = append(s.spans, tr.spans...)

	// The any-k variants, on path4's T-DP.
	path := ls[0]
	or := s.enumOr[0]
	for _, v := range core.Variants() {
		var ttk []float64
		for c := 0; c < 5; c++ {
			t0 := time.Now()
			it, err := path.start(ctx, v, topK)
			if err != nil {
				return err
			}
			var st stamps
			st, s.buf, err = drain(it, t0, s.buf)
			s.out.op(checkRun(or, aggSum, st, s.buf, topK, err), "path4 "+string(v))
			ttk = append(ttk, ms(st.t1000))
		}
		s.add("core.ttk_ms."+string(v), median(ttk))
		runtime.GC()
		var st stamps
		var err error
		_, _, mallocs := measure(func() {
			t0 := time.Now()
			var it core.Iterator
			if it, err = path.start(ctx, v, 0); err != nil {
				return
			}
			st, s.buf, err = drain(it, t0, s.buf)
		})
		s.out.op(checkRun(or, aggSum, st, s.buf, 0, err), "path4 "+string(v))
		s.add("core.ttl_ms."+string(v), ms(st.last))
		if allocVariants[v] {
			s.add("core.allocs_per_result."+string(v), float64(mallocs)/float64(max(1, st.n)))
		}
		if delayVariants[v] {
			ttf, p99, err := delays(ctx, path, v)
			if err != nil {
				return err
			}
			s.add("core.ttf_us."+string(v), us(ttf))
			s.add("core.delay_p99_us."+string(v), p99)
		}
	}
	return nil
}

var (
	allocVariants = map[core.Variant]bool{core.Lazy: true, core.Take2: true, core.Rec: true, core.Batch: true}
	delayVariants = map[core.Variant]bool{core.Lazy: true, core.Take2: true, core.Rec: true}
)

// delayResults is how many results the inter-result delay is sampled
// over: enough for 500 samples beyond the 99th percentile.
const delayResults = 50000

// delays stamps every one of the first delayResults results and returns
// the time to the first and the 99th percentile of the gaps between
// consecutive results, in µs.
func delays(ctx context.Context, l *layered, v core.Variant) (time.Duration, float64, error) {
	gaps := make([]float64, 0, delayResults)
	t0 := time.Now()
	it, err := l.start(ctx, v, delayResults)
	if err != nil {
		return 0, 0, err
	}
	defer it.Close()
	var ttf time.Duration
	prev := t0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		now := time.Now()
		if len(gaps) == 0 && ttf == 0 {
			ttf = now.Sub(t0)
		} else {
			gaps = append(gaps, us(now.Sub(prev)))
		}
		prev = now
	}
	if len(gaps) == 0 {
		return ttf, 0, it.Err()
	}
	return ttf, pct(gaps, 0.99), it.Err()
}

// ---- cold preparation ----

func (s *suite) coldSection() error {
	ctx := s.ctx
	// Per fixture, back to back: through the facade untraced (ingest,
	// Compile, the first Run to its first result, the drain), then the
	// same layer by layer, traced. Only the plans later steps need stay
	// referenced, so both sides run against the same live heap.
	facade := map[string]time.Duration{}
	replay := map[string]time.Duration{}
	plans := map[string]*repro.Prepared{}
	ls := map[string]*layered{}
	var ingestAll time.Duration
	tr := newTracer()
	for i, f := range s.coldFx {
		limit := coldLimit(f)
		// One untimed run first: the first build of a shape grows the
		// heap, and whichever side ran first would pay for it.
		if warm, err := repro.Compile(f.query()); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		} else if _, err := warm.TopK(1); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		live := liveFixtures[f.name]
		h0 := heapAfterGC()
		t0 := time.Now()
		q := f.query()
		tIngest := time.Since(t0)
		p, err := repro.Compile(q)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		tCompile := time.Since(t0)
		it, err := p.Run(repro.WithK(limit))
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		st, buf, err := drain(it, t0, s.buf)
		s.buf = buf
		s.out.op(checkRun(s.coldOr[i], aggSum, st, buf, limit, err), "facade "+f.name)
		facade[f.name] = st.last
		ingestAll += tIngest
		s.add("repro.compile_ms."+f.name, ms(tCompile-tIngest))
		s.add("repro.first_run_ms."+f.name, ms(st.first-tCompile))
		if live {
			h1 := heapAfterGC()
			runtime.KeepAlive(p)
			s.add("repro.live_bytes_per_tuple."+f.name, (float64(h1)-float64(h0))/float64(f.tuples()))
		}
		if _, ok := sampleSizes[f.name]; ok {
			plans[f.name] = p
		}
		p = nil

		runtime.GC()
		tr.nextOp()
		first := len(tr.spans)
		l, err := buildLayered(ctx, tr, f, true)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		_, s.buf = l.enumerate(ctx, tr, s.coldOr[i], s.out, limit, s.buf)
		replay[f.name] = rootTime(tr.spans[first:])
		if l.dplan != nil && f.cycle != 3 {
			s.add("decomp.materialized."+f.name, float64(l.dplan.Stats.TotalMaterialized))
		}
		if keepLayered[f.name] {
			ls[f.name] = l
		}
	}
	s.add("relation.ingest_ms", ms(ingestAll))
	s.setShares("cold_prepare", tr.spans)
	s.spans = append(s.spans, tr.spans...)
	var facadeAll, facadeCyclic, replayCyclic time.Duration
	for _, f := range s.coldFx {
		facadeAll += facade[f.name]
		if f.name != "star8" {
			facadeCyclic += facade[f.name]
			replayCyclic += replay[f.name]
		}
	}
	s.overhead["cold_prepare"] = append(s.overhead["cold_prepare"], 100*(float64(rootTime(tr.spans))-float64(facadeAll))/float64(facadeAll))
	s.add("repro.layer_coverage.cyclic", float64(replayCyclic)/float64(facadeCyclic))
	// star8 is the one acyclic fixture here and a single pair of ~0.15 s
	// runs is a noisy ratio, so two more pairs are taken and the medians
	// compared.
	star8 := fixtureByName(s.coldFx, "star8")
	fs, rs := []float64{ms(facade["star8"])}, []float64{ms(replay["star8"])}
	for round := 0; round < 2; round++ {
		runtime.GC()
		var err error
		fs = append(fs, ms(timed(func() {
			var p *repro.Prepared
			if p, err = repro.Compile(star8.query()); err == nil {
				_, err = p.TopK(topK)
			}
		})))
		if err != nil {
			return err
		}
		runtime.GC()
		// No allocation counts here: the MemStats reads between spans let
		// the collector run outside the spans' clocks, which alone makes
		// the replay look a tenth faster than the facade.
		extra := newTracer()
		extra.mem = false
		l, err := buildLayered(ctx, extra, star8, false)
		if err != nil {
			return err
		}
		_, s.buf = l.enumerate(ctx, extra, s.coldOr[len(s.coldOr)-1], s.out, topK, s.buf)
		rs = append(rs, ms(rootTime(extra.spans)))
	}
	s.add("repro.layer_coverage.acyclic", median(rs)/median(fs))

	for _, name := range []string{"triangle", "c4", "c5", "c6", "chorded5", "bowtie"} {
		s.add("decomp.prepare_ms."+name, ms(named(tr.spans, name+"/decomp.Prepare").dur()))
	}
	for _, name := range []string{"c5", "c6"} {
		s.add("decomp.alloc_mb."+name, float64(named(tr.spans, name+"/decomp.Prepare").Alloc)/1e6)
	}
	chorded, star := ls["chorded5"], ls["star8"]
	s.add("hypergraph.decompose_ms", ms(named(tr.spans, "chorded5/hypergraph.DecomposeCosted").dur()+named(tr.spans, "bowtie/hypergraph.DecomposeCosted").dur()))
	s.add("hypergraph.width.chorded5", chorded.dec.Width)
	s.add("catalog.est_error.chorded5", plans["chorded5"].PlanStats().EstimatorError)
	s.add("dp.newplan_ms", ms(named(tr.spans, "star8/dp.NewPlan").dur()))
	inst := named(tr.spans, "star8/dp.Instantiate")
	s.add("dp.instantiate_ms", ms(inst.dur()))
	s.add("dp.instantiate_alloc_mb", float64(inst.Alloc)/1e6)

	// Stand-alone timings of single layers on the same fixtures.
	s.add("catalog.collect_ms", ms(timed(func() {
		for _, l := range []*layered{chorded, star} {
			for _, r := range l.rels {
				catalog.Collect(r)
			}
		}
	})))
	s.add("catalog.costmodel_ms", ms(timed(func() {
		cm := catalog.NewCostModel(chorded.f.edges, chorded.rels, nil)
		cm.EstimateOutput()
		for _, bag := range chorded.dec.Bags {
			cm.BagCost(bag)
		}
	})))
	var err error
	d, mb, _ := measure(func() {
		for _, r := range star.rels {
			if _, e := relation.NewIndex(r, r.Attrs[0]); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	s.add("relation.index_build_ms", ms(d))
	s.add("relation.index_alloc_mb", mb)

	if err := s.acyclicLayers(star); err != nil {
		return err
	}
	if err := s.wcojLayers(ls); err != nil {
		return err
	}
	return s.sampleLayers(plans)
}

// coldFull names the cold_prepare fixtures whose output is small enough
// to enumerate to exhaustion; the rest stop at topK. The set is fixed
// (not derived from the data) so a seed cannot move a fixture across it.
var coldFull = map[string]bool{"triangle": true, "c4": true, "c5": true, "c6": true, "bowtie": true}

// coldLimit is the k cold_prepare runs a fixture with: 0 (to
// exhaustion) or topK.
func coldLimit(f *fixture) int {
	if coldFull[f.name] {
		return 0
	}
	return topK
}

// keepLayered are the replayed plans the stand-alone layer timings
// reuse; the rest are dropped as soon as they have been enumerated.
var keepLayered = map[string]bool{"triangle": true, "hub_triangle": true, "chorded5": true, "star8": true}

// liveFixtures are the fixtures whose resident plan bytes are reported.
var liveFixtures = map[string]bool{"c6": true, "chorded5": true}

// acyclicLayers times the reducer and the T-DP builder stand-alone, on
// star8 (from the cold pass) and path4, and the incremental variants of
// both on an 8-row append to path4's first relation.
func (s *suite) acyclicLayers(star *layered) error {
	ctx := s.ctx
	pf := s.enumFx[0]
	path, err := buildLayered(ctx, nil, pf, false)
	if err != nil {
		return err
	}
	wStar, wPath := prepareWorkers(star.f.tuples()), prepareWorkers(pf.tuples())
	var before, after int
	var reduceErr error
	s.add("yannakakis.reduce_ms", ms(timed(func() {
		for _, lw := range []struct {
			l *layered
			w int
		}{{star, wStar}, {path, wPath}} {
			red, err := lw.l.yq.FullReduceWith(ctx, lw.w)
			if err != nil {
				reduceErr = err
				return
			}
			for i, r := range red {
				before += lw.l.rels[i].Len()
				after += r.Len()
			}
		}
	})))
	if reduceErr != nil {
		return reduceErr
	}
	s.add("yannakakis.kept_ratio", float64(after)/float64(before))

	// The delta: deltaRows rows appended to path4's first relation.
	red, err := path.yq.ReduceKeep(ctx, wPath)
	if err != nil {
		return err
	}
	script := newPatchScript(pf, 0, newOpsRand(s.g.seed))
	rels2 := append([]*relation.Relation(nil), path.rels...)
	rels2[0] = path.rels[0].Clone()
	for i, t := range script.rows {
		rels2[0].AddTuple(t, script.weights[i])
	}
	yq2, err := yannakakis.NewQuery(hypergraph.New(pf.edges...), rels2)
	if err != nil {
		return err
	}
	changed := make([]bool, len(rels2))
	changed[0] = true
	d := timed(func() { _, _, err = yq2.ReduceDelta(ctx, wPath, red, changed) })
	if err != nil {
		return err
	}
	s.add("yannakakis.reduce_delta_ms", ms(d))
	d = timed(func() {
		var plan2 *dp.Plan
		var ds *dp.DeltaStats
		if plan2, ds, err = dp.NewPlanDelta(yq2, path.plan, changed, dp.WithWorkers(wPath), dp.WithContext(ctx)); err != nil {
			return
		}
		_, _, err = plan2.InstantiateDelta(sumCost, path.tdp, ds.Changed, dp.WithWorkers(wPath), dp.WithContext(ctx))
	})
	if err != nil {
		return err
	}
	s.add("dp.instantiate_delta_ms", ms(d))

	wInst := prepareWorkers(star.plan.TotalTuples())
	seq := timed(func() { _, err = star.plan.Instantiate(sumCost, dp.WithContext(ctx), dp.WithWorkers(1)) })
	if err != nil {
		return err
	}
	par := timed(func() { _, err = star.plan.Instantiate(sumCost, dp.WithContext(ctx), dp.WithWorkers(wInst)) })
	if err != nil {
		return err
	}
	s.add("dp.par_speedup", float64(seq)/float64(par))

	// The same delta through the facade: append, then delete, on the
	// warm path4 handle (which ends where it began).
	p := s.enumPlans[0]
	h0 := heapAfterGC()
	fresh, err := repro.Compile(pf.query())
	if err != nil {
		return err
	}
	if _, err := fresh.TopK(1); err != nil {
		return err
	}
	h1 := heapAfterGC()
	runtime.KeepAlive(fresh)
	s.add("repro.live_bytes_per_tuple.path4", (float64(h1)-float64(h0))/float64(pf.tuples()))
	rel := pf.rels[0].Name
	var applied []float64
	for _, delta := range []repro.Delta{
		{Rel: rel, Append: script.rows, AppendWeights: script.weights},
		{Rel: rel, Delete: script.rows},
	} {
		d := timed(func() { err = p.ApplyDelta([]repro.Delta{delta}) })
		if err != nil {
			return err
		}
		applied = append(applied, ms(d))
	}
	s.add("repro.apply_delta_ms", mean(applied))
	ps := p.PlanStats()
	s.add("repro.delta_nodes_reused_ratio", float64(ps.DeltaNodesReused)/float64(max(1, ps.DeltaNodesReused+ps.DeltaNodesRecomputed)))
	return nil
}

// wcojLayers times Generic-Join stand-alone: on the two triangle
// fixtures with exactly the atoms and order decomp.PrepareTriangle
// uses, and on chorded5 as the whole six-atom query under the order the
// catalog chooses (the bags the GHD planner materialises are internal
// to decomp, so their atoms cannot be rebuilt here).
func (s *suite) wcojLayers(ls map[string]*layered) error {
	ctx := s.ctx
	for _, name := range []string{"triangle", "hub_triangle", "chorded5"} {
		l := ls[name]
		var atoms []wcoj.Atom
		var order []string
		if l.f.cycle == 3 {
			atoms, order = triangleAtoms(l.rels), []string{"A", "B", "C"}
		} else {
			for i, e := range l.f.edges {
				atoms = append(atoms, wcoj.Atom{Rel: l.rels[i], Vars: e.Vars})
			}
			var err error
			if order, err = catalog.ChooseOrder(atoms); err != nil {
				return err
			}
		}
		var instr *wcoj.Instr
		var err error
		d, mb, _ := measure(func() { _, instr, err = wcoj.Materialize(atoms, order, sumCost) })
		if err != nil {
			return err
		}
		sizes := make([]float64, len(l.rels))
		for i, r := range l.rels {
			sizes[i] = float64(max(1, r.Len()))
		}
		agm, err := hypergraph.New(l.f.edges...).AGMBound(sizes)
		if err != nil {
			return err
		}
		s.add("wcoj.materialize_ms."+name, ms(d))
		s.add("wcoj.seeks."+name, float64(instr.Seeks))
		s.add("wcoj.seeks_per_agm."+name, float64(instr.Seeks+instr.Emits)/agm)
		if name == "chorded5" {
			s.add("wcoj.alloc_mb.chorded5", mb)
		}
		if name == "hub_triangle" {
			workers := prepareWorkers(l.f.tuples())
			par := timed(func() {
				_, _, err = wcoj.MaterializeParallelHinted(ctx, atoms, order, sumCost, workers, l.cm.HeavyValues)
			})
			if err != nil {
				return err
			}
			s.add("wcoj.par_speedup.hub_triangle", float64(d)/float64(par))
			_, share, err := wcoj.TaskShares(atoms, order, workers, l.cm.HeavyValues)
			if err != nil {
				return err
			}
			s.add("wcoj.max_task_share.hub_triangle", share)
		}
	}
	return nil
}

// sampleSizes are the draws asked of the uniform sampler; small, so
// that chorded5 (whose AGM bound overshoots its answer count and which
// therefore runs its whole trial budget) costs a fraction of a second.
var sampleSizes = map[string]int{"triangle": 5, "chorded5": 5}

func (s *suite) sampleLayers(plans map[string]*repro.Prepared) error {
	for _, name := range []string{"triangle", "chorded5"} {
		p := plans[name]
		var got []repro.Result
		var err error
		d := timed(func() { got, err = p.Sample(sampleSizes[name], repro.WithSeed(s.g.seed)) })
		exhausted := errors.Is(err, repro.ErrTrialBudget)
		if err != nil && !exhausted {
			return fmt.Errorf("sample %s: %w", name, err)
		}
		ps := p.PlanStats()
		if name == "triangle" {
			s.add("sample.samples_per_s.triangle", float64(len(got))/d.Seconds())
			continue
		}
		s.add("sample.accept_ratio.chorded5", float64(ps.SampleAccepts)/float64(max(1, ps.SampleTrials)))
		s.add("sample.exhausted.chorded5", map[bool]float64{true: 1}[exhausted])
	}
	return nil
}
