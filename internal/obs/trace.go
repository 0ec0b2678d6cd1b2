package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// ctx keys are pointers so context lookups compare by identity and the
// no-trace path stays allocation-free (interface conversion of a
// pointer does not allocate).
var (
	traceCtxKey = new(int)
	spanCtxKey  = new(int)
)

// Trace is one recorded request or operation: a tree of timed spans.
// All mutation goes through the trace mutex — tracing is opt-in and
// per-request, so the lock is never on a hot library path; code that
// runs without a recorder never reaches it.
type Trace struct {
	ID    string
	Start time.Time

	mu    sync.Mutex
	end   time.Time
	roots []*Span
}

// Span is one timed phase within a trace. A nil *Span is valid and all
// its methods are no-ops — StartSpan returns nil when no recorder is
// installed, so call sites need no conditionals.
type Span struct {
	Name     string
	Attrs    []Label
	Events   []Event
	Children []*Span

	trace  *Trace
	start  time.Time
	end    time.Time
	closed atomic.Bool
}

// Event is a point-in-time mark within a span (e.g. "first-result").
type Event struct {
	Name string
	At   time.Time
}

// NewID returns a random 16-hex-digit trace id.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// fixed id rather than panicking in a serving path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// NewTrace installs a fresh trace recorder with the given id on ctx and
// returns the derived context plus the trace. now is the trace start.
func NewTrace(ctx context.Context, id string, now time.Time) (context.Context, *Trace) {
	t := &Trace{ID: id, Start: now}
	return context.WithValue(ctx, traceCtxKey, t), t
}

// TraceFrom returns the trace installed on ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey).(*Trace)
	return t
}

// Adopt copies the trace recorder (and current span position) from src
// onto dst, for work that must run on a detached context — e.g. a plan
// build bounded by the server's base context rather than the request —
// while still reporting into the request's trace.
func Adopt(dst, src context.Context) context.Context {
	t := TraceFrom(src)
	if t == nil {
		return dst
	}
	dst = context.WithValue(dst, traceCtxKey, t)
	if s, _ := src.Value(spanCtxKey).(*Span); s != nil {
		dst = context.WithValue(dst, spanCtxKey, s)
	}
	return dst
}

// StartSpan opens a span under the current span (or as a root) if ctx
// carries a trace, returning the derived context and the span. Without
// a trace — the default for every library-only caller — it returns
// (ctx, nil) and performs no allocation.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	t, _ := ctx.Value(traceCtxKey).(*Trace)
	if t == nil {
		return ctx, nil
	}
	s := &Span{Name: name, trace: t, start: time.Now()}
	t.mu.Lock()
	if parent, _ := ctx.Value(spanCtxKey).(*Span); parent != nil {
		parent.Children = append(parent.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey, s), s
}

// End closes the span. Idempotent and safe to call concurrently (an
// iterator's Close may race its consumer's Next); the first call wins.
func (s *Span) End() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	now := time.Now()
	s.trace.mu.Lock()
	s.end = now
	s.trace.mu.Unlock()
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.Attrs = append(s.Attrs, Label{Key: key, Value: value})
	s.trace.mu.Unlock()
}

// Event records a point-in-time mark on the span.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.trace.mu.Lock()
	s.Events = append(s.Events, Event{Name: name, At: now})
	s.trace.mu.Unlock()
}

// Finish marks the trace complete (usually at end of request), closing
// any spans left open.
func (t *Trace) Finish(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.end = now
	var closeOpen func(s *Span)
	closeOpen = func(s *Span) {
		if s.closed.CompareAndSwap(false, true) {
			s.end = now
		} else if s.end.IsZero() {
			// A concurrent End won the CAS but has not stored its time
			// yet; it will, under this same mutex, after us.
			s.end = now
		}
		for _, c := range s.Children {
			closeOpen(c)
		}
	}
	for _, r := range t.roots {
		closeOpen(r)
	}
	t.mu.Unlock()
}

// SpanJSON is one node of the serialised span tree. Times are
// nanosecond offsets from the trace start, so the tree is stable
// against wall-clock formatting.
type SpanJSON struct {
	Name       string            `json:"name"`
	StartNs    int64             `json:"start_ns"`
	DurationNs int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []EventJSON       `json:"events,omitempty"`
	Children   []*SpanJSON       `json:"children,omitempty"`
}

// EventJSON is a serialised point-in-time mark.
type EventJSON struct {
	Name string `json:"name"`
	AtNs int64  `json:"at_ns"`
}

// TraceJSON is the serialised form of a whole trace, as returned by
// GET /v1/traces/{id}.
type TraceJSON struct {
	TraceID     string      `json:"trace_id"`
	StartUnixNs int64       `json:"start_unix_ns"`
	DurationNs  int64       `json:"duration_ns"`
	Spans       []*SpanJSON `json:"spans"`
}

// Snapshot renders the trace as its JSON form. Safe to call while
// spans are still being recorded; open spans report duration up to the
// snapshot instant.
func (t *Trace) Snapshot() *TraceJSON {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if end.IsZero() {
		end = now
	}
	out := &TraceJSON{
		TraceID:     t.ID,
		StartUnixNs: t.Start.UnixNano(),
		DurationNs:  end.Sub(t.Start).Nanoseconds(),
	}
	var conv func(s *Span) *SpanJSON
	conv = func(s *Span) *SpanJSON {
		se := s.end
		if se.IsZero() {
			se = now
		}
		j := &SpanJSON{
			Name:       s.Name,
			StartNs:    s.start.Sub(t.Start).Nanoseconds(),
			DurationNs: se.Sub(s.start).Nanoseconds(),
		}
		if len(s.Attrs) > 0 {
			j.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				j.Attrs[a.Key] = a.Value
			}
		}
		for _, e := range s.Events {
			j.Events = append(j.Events, EventJSON{Name: e.Name, AtNs: e.At.Sub(t.Start).Nanoseconds()})
		}
		for _, c := range s.Children {
			j.Children = append(j.Children, conv(c))
		}
		return j
	}
	for _, r := range t.roots {
		out.Spans = append(out.Spans, conv(r))
	}
	return out
}

// TraceStore is a fixed-capacity ring buffer of finished traces keyed
// by id — the backing store for GET /v1/traces/{id}. Adding beyond
// capacity evicts the oldest entry.
type TraceStore struct {
	mu   sync.Mutex
	cap  int
	ring []*Trace
	next int
	byID map[string]*Trace
}

// NewTraceStore returns a store holding up to capacity traces
// (minimum 1).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceStore{
		cap:  capacity,
		ring: make([]*Trace, capacity),
		byID: make(map[string]*Trace, capacity),
	}
}

// Add inserts a trace, evicting the oldest when full.
func (ts *TraceStore) Add(t *Trace) {
	if t == nil {
		return
	}
	ts.mu.Lock()
	if old := ts.ring[ts.next]; old != nil {
		delete(ts.byID, old.ID)
	}
	ts.ring[ts.next] = t
	ts.byID[t.ID] = t
	ts.next = (ts.next + 1) % ts.cap
	ts.mu.Unlock()
}

// Get returns the trace with the given id, or nil.
func (ts *TraceStore) Get(id string) *Trace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.byID[id]
}

// Len returns the number of stored traces.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.byID)
}
