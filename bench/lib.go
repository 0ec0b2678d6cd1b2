package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
)

// Library workloads drive the facade from one goroutine. A pass is one
// sweep over the workload's fixtures; every time-valued metric is the
// median across passes of the pass total (the sum over the fixtures).

const (
	// enumTopKCalls is how many Run(WithK(1000)) calls enum_deep makes
	// per fixture and pass before its one full enumeration.
	enumTopKCalls = 20
	// topK is the k of every k-limited library run.
	topK = 1000
)

// stamps are the times, from the start of an op, at which its 1st,
// 10th, 100th, 1000th and last result arrived. A run shorter than a
// milestone reports the time of its last result there.
type stamps struct {
	first, t10, t100, t1000, last time.Duration
	n                             int64
	monotone                      bool
}

// drain pulls it to exhaustion, stamping milestones against t0 and
// keeping the first oracleK weights in buf for the oracle.
func drain(it repro.Iterator, t0 time.Time, buf []float64) (stamps, []float64, error) {
	s := stamps{monotone: true}
	buf = buf[:0]
	prev := 0.0
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		s.n++
		if s.n > 1 && r.Weight < prev {
			s.monotone = false
		}
		prev = r.Weight
		if s.n <= oracleK {
			buf = append(buf, r.Weight)
			switch s.n {
			case 1:
				s.first = time.Since(t0)
			case 10:
				s.t10 = time.Since(t0)
			case 100:
				s.t100 = time.Since(t0)
			case 1000:
				s.t1000 = time.Since(t0)
			}
		}
	}
	s.last = time.Since(t0)
	err := it.Err()
	it.Close()
	if s.n < 1 {
		s.first = s.last
	}
	if s.n < 10 {
		s.t10 = s.last
	}
	if s.n < 100 {
		s.t100 = s.last
	}
	if s.n < 1000 {
		s.t1000 = s.last
	}
	return s, buf, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// passClock accumulates what one pass contributes to each metric.
type passClock struct {
	ttf, tt10, tt100, ttk, ttl float64 // ms
}

// libRun collects a library workload's samples across passes.
type libRun struct {
	out                        *output
	ttf, tt10, tt100, ttk, ttl []float64
	alloc                      []float64
	passMs                     []float64
	ops                        int64
	timed                      time.Duration
	perFixture                 map[string][]float64 // "<metric>.<fixture>" → per-pass values
}

func newLibRun(out *output) *libRun {
	return &libRun{out: out, perFixture: map[string][]float64{}}
}

// pass runs body between a forced GC and a MemStats read, both outside
// the timer, and files the pass's totals.
func (l *libRun) pass(ops int, body func(pc *passClock)) {
	runtime.GC()
	var pc passClock
	d, allocMB, _ := measure(func() { body(&pc) })
	l.timed += d
	l.ops += int64(ops)
	l.passMs = append(l.passMs, ms(d))
	l.ttf = append(l.ttf, pc.ttf)
	l.tt10 = append(l.tt10, pc.tt10)
	l.tt100 = append(l.tt100, pc.tt100)
	l.ttk = append(l.ttk, pc.ttk)
	l.ttl = append(l.ttl, pc.ttl)
	l.alloc = append(l.alloc, allocMB)
}

func (l *libRun) fixtureSample(metric, fixture string, v float64) {
	k := metric + "." + fixture
	l.perFixture[k] = append(l.perFixture[k], v)
}

// finish files the end-to-end metrics. keep pins whatever must still be
// reachable when the live heap is read.
func (l *libRun) finish(keep any) {
	o := l.out
	o.e2e("ttf_ms", summarize(l.ttf))
	o.e2e("tt10_ms", summarize(l.tt10))
	o.e2e("tt100_ms", summarize(l.tt100))
	o.e2e("ttk_ms", summarize(l.ttk))
	o.e2e("ttl_ms", summarize(l.ttl))
	o.e2e("alloc_mb", summarize(l.alloc))
	o.e2e("qps", point(float64(l.ops)/l.timed.Seconds(), int(l.ops)))
	o.e2e("live_heap_mb", point(liveHeapMB(keep), 1))
	o.detail("pass_ms", summarize(l.passMs))
	for k, v := range l.perFixture {
		o.detail(k, summarize(v))
	}
}

// liveHeapMB is HeapAlloc after a forced collection with keep still
// referenced: the resident bytes of the plans (or the server) plus the
// benchmark's own fixtures and oracles, which do not change between
// commits.
func liveHeapMB(keep any) float64 {
	h := heapAfterGC()
	runtime.KeepAlive(keep)
	return float64(h) / 1e6
}

// ---- enum_deep ----

type enumState struct {
	fx      []*fixture
	oracles []*oracle
	plans   []*repro.Prepared
}

// setupEnum generates the three fixtures, solves their oracles, and
// compiles and warms one plan each (the first TopK instantiates the
// per-ranking plan, so the timed window sees steady state).
func setupEnum(g gen, tm *setupTimes) (*enumState, error) {
	st := &enumState{}
	t := time.Now()
	st.fx = g.enumFixtures()
	tm.fixture += time.Since(t)
	t = time.Now()
	for _, f := range st.fx {
		st.oracles = append(st.oracles, solveOracle(f, false))
	}
	tm.oracle += time.Since(t)
	for _, f := range st.fx {
		p, err := repro.Compile(f.query())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", f.name, err)
		}
		if _, err := p.TopK(topK); err != nil {
			return nil, fmt.Errorf("warm %s: %w", f.name, err)
		}
		st.plans = append(st.plans, p)
	}
	return st, nil
}

// run repeats passes until the deadline: per fixture enumTopKCalls
// k-limited runs and one run to exhaustion, all off the warm plan, all
// with the default variant and ranking.
func (st *enumState) run(_ context.Context, out *output, deadline time.Time) {
	l := newLibRun(out)
	buf := make([]float64, 0, oracleK)
	calls := enumTopKCalls
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		l.pass(len(st.fx)*(calls+1), func(pc *passClock) {
			for i, p := range st.plans {
				o := st.oracles[i]
				var ttf, tt10, tt100, ttk time.Duration
				for c := 0; c < calls; c++ {
					t0 := time.Now()
					it, err := p.Run(repro.WithK(topK))
					if err != nil {
						out.fail(fmt.Errorf("%s: run: %w", st.fx[i].name, err))
						continue
					}
					var s stamps
					s, buf, err = drain(it, t0, buf)
					out.op(checkRun(o, aggSum, s, buf, topK, err), st.fx[i].name)
					ttf += s.first
					tt10 += s.t10
					tt100 += s.t100
					ttk += s.t1000
				}
				n := time.Duration(calls)
				pc.ttf += ms(ttf / n)
				pc.tt10 += ms(tt10 / n)
				pc.tt100 += ms(tt100 / n)
				pc.ttk += ms(ttk / n)
				l.fixtureSample("ttk_ms", st.fx[i].name, ms(ttk/n))

				t0 := time.Now()
				it, err := p.Run()
				if err != nil {
					out.fail(fmt.Errorf("%s: run: %w", st.fx[i].name, err))
					continue
				}
				var s stamps
				s, buf, err = drain(it, t0, buf)
				out.op(checkRun(o, aggSum, s, buf, 0, err), st.fx[i].name)
				pc.ttl += ms(s.last)
				l.fixtureSample("ttl_ms", st.fx[i].name, ms(s.last))
			}
		})
	}
	l.finish(st)
}

func (st *enumState) close() {}

func checkRun(o *oracle, agg string, s stamps, got []float64, limit int, err error) error {
	if err != nil {
		return err
	}
	return o.verify(agg, got, s.n, limit, s.monotone)
}

// ---- cold_prepare ----

type coldState struct {
	fx      []*fixture
	oracles []*oracle
	// plans holds the last pass's handles so the live heap is read with
	// them resident.
	plans []*repro.Prepared
}

func setupCold(g gen, tm *setupTimes) (*coldState, error) {
	st := &coldState{}
	t := time.Now()
	st.fx = g.coldFixtures()
	tm.fixture += time.Since(t)
	t = time.Now()
	for _, f := range st.fx {
		st.oracles = append(st.oracles, solveOracle(f, false))
	}
	tm.oracle += time.Since(t)
	st.plans = make([]*repro.Prepared, len(st.fx))
	return st, nil
}

func (st *coldState) close() {}

// run repeats passes until the deadline: per fixture a fresh Query
// from the pre-generated tuples, Compile, Run and drain, so every pass
// pays ingest, statistics, planning, reduction or materialisation, and
// instantiation again.
func (st *coldState) run(_ context.Context, out *output, deadline time.Time) {
	l := newLibRun(out)
	buf := make([]float64, 0, oracleK)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		l.pass(len(st.fx), func(pc *passClock) {
			for i, f := range st.fx {
				limit := coldLimit(f)
				t0 := time.Now()
				p, err := repro.Compile(f.query())
				if err != nil {
					out.fail(fmt.Errorf("%s: compile: %w", f.name, err))
					continue
				}
				it, err := p.Run(repro.WithK(limit))
				if err != nil {
					out.fail(fmt.Errorf("%s: run: %w", f.name, err))
					continue
				}
				var s stamps
				s, buf, err = drain(it, t0, buf)
				out.op(checkRun(st.oracles[i], aggSum, s, buf, limit, err), f.name)
				st.plans[i] = p
				pc.ttf += ms(s.first)
				pc.tt10 += ms(s.t10)
				pc.tt100 += ms(s.t100)
				pc.ttk += ms(s.t1000)
				if limit == 0 {
					pc.ttl += ms(s.last)
				}
				l.fixtureSample("ttf_ms", f.name, ms(s.first))
			}
		})
	}
	l.finish(st)
}
