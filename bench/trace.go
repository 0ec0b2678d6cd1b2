package main

import (
	"runtime"
	"time"
)

// A span is one call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented here). Spans of one
// operation share Op; Parent is the span that was open when this one
// began (-1 for a root). Times are nanoseconds since the tracer began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the bytes allocated while the span was open, children
	// included (TotalAlloc delta; read outside the span's clock).
	Alloc uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; it is used from one goroutine. A nil
// tracer records nothing, which is how the same replay code runs
// untraced to price the tracing itself.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
	// mem makes every span also record the bytes allocated under it, at
	// the price of two stop-the-world MemStats reads per span (outside
	// the span's own clock, inside its parent's).
	mem bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), mem: true} }

// nextOp starts a new operation id for the spans that follow.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// in runs f inside a span of the given layer.
func (t *tracer) in(layer, name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	var m runtime.MemStats
	if t.mem {
		runtime.ReadMemStats(&m)
	}
	before := m.TotalAlloc
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	if t.mem {
		runtime.ReadMemStats(&m)
		t.spans[id].Alloc = m.TotalAlloc - before
	}
}

// move re-attributes d of the named span's time to another layer by
// recording a child span of that length: how the replay accounts for a
// layer that runs hidden inside another's public call (the reducer
// inside dp.NewPlan, Generic-Join inside decomp.PrepareTriangle) after
// timing it stand-alone on identical inputs.
func (t *tracer) move(id int, layer, name string, d time.Duration) {
	if t == nil {
		return
	}
	s := t.spans[id]
	if d > s.dur() {
		d = s.dur()
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: id, Op: s.Op, Layer: layer, Name: name, Start: s.Start, End: s.Start + int64(d)})
}

// last is the id of the most recently begun span.
func (t *tracer) last() int {
	if t == nil {
		return -1
	}
	return len(t.spans) - 1
}

// selfTimes sums, per layer, every span's duration minus the part its
// direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Layer] += s.dur() - child[i]
	}
	return out
}

// rootTime is the total duration of the root spans.
func rootTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			d += s.dur()
		}
	}
	return d
}

// named returns the first span with the given name (the zero span when
// there is none).
func named(spans []span, name string) span {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	return span{}
}
