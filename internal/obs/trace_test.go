package obs

import (
	"context"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "abc123", time.Now())
	cctx, compile := StartSpan(ctx, "compile")
	_, dec := StartSpan(cctx, "decompose")
	dec.SetAttr("shape", "acyclic")
	dec.End()
	_, cost := StartSpan(cctx, "cost-model")
	cost.End()
	compile.End()
	rctx, run := StartSpan(ctx, "run")
	run.Event("first-result")
	_, enum := StartSpan(rctx, "enumerate")
	enum.End()
	run.End()
	tr.Finish(time.Now())

	j := tr.Snapshot()
	if j.TraceID != "abc123" {
		t.Fatalf("trace id = %q", j.TraceID)
	}
	if len(j.Spans) != 2 {
		t.Fatalf("roots = %d, want 2", len(j.Spans))
	}
	c := j.Spans[0]
	if c.Name != "compile" || len(c.Children) != 2 {
		t.Fatalf("compile span wrong: %+v", c)
	}
	if c.Children[0].Name != "decompose" || c.Children[0].Attrs["shape"] != "acyclic" {
		t.Fatalf("decompose child wrong: %+v", c.Children[0])
	}
	r := j.Spans[1]
	if r.Name != "run" || len(r.Events) != 1 || r.Events[0].Name != "first-result" {
		t.Fatalf("run span wrong: %+v", r)
	}
	// Children are contained within parents, spans within the trace.
	for _, s := range j.Spans {
		if s.StartNs < 0 || s.StartNs+s.DurationNs > j.DurationNs {
			t.Fatalf("span %s [%d,+%d] outside trace duration %d", s.Name, s.StartNs, s.DurationNs, j.DurationNs)
		}
		for _, ch := range s.Children {
			if ch.StartNs < s.StartNs || ch.StartNs+ch.DurationNs > s.StartNs+s.DurationNs {
				t.Fatalf("child %s outside parent %s", ch.Name, s.Name)
			}
		}
	}
}

func TestNoTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "anything")
	if s != nil {
		t.Fatal("span without trace should be nil")
	}
	if ctx2 != ctx {
		t.Fatal("context should pass through unchanged")
	}
	// All methods safe on nil.
	s.End()
	s.SetAttr("k", "v")
	s.Event("e")
	var tr *Trace
	tr.Finish(time.Now())
	if got := TraceFrom(ctx); got != nil {
		t.Fatal("TraceFrom on bare ctx should be nil")
	}
	if got := TraceFrom(nil); got != nil { //nolint:staticcheck // nil-safety contract
		t.Fatal("TraceFrom(nil) should be nil")
	}
}

func TestStartSpanZeroAllocWithoutTrace(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, s := StartSpan(ctx, "phase")
		s.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("StartSpan without recorder allocated %v times/op, want 0", allocs)
	}
}

func TestAdopt(t *testing.T) {
	src, tr := NewTrace(context.Background(), "id1", time.Now())
	src2, parent := StartSpan(src, "request")
	// A detached context (e.g. the server's base context).
	detached := Adopt(context.Background(), src2)
	_, child := StartSpan(detached, "detached-build")
	child.End()
	parent.End()
	tr.Finish(time.Now())
	j := tr.Snapshot()
	if len(j.Spans) != 1 || len(j.Spans[0].Children) != 1 {
		t.Fatalf("adopted span not nested under request: %+v", j.Spans)
	}
	if j.Spans[0].Children[0].Name != "detached-build" {
		t.Fatalf("child = %q", j.Spans[0].Children[0].Name)
	}
	// Adopt with no trace on src is identity.
	base := context.Background()
	if got := Adopt(base, context.Background()); got != base {
		t.Fatal("Adopt without source trace should return dst unchanged")
	}
}

func TestEndIdempotentAndConcurrent(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "id2", time.Now())
	_, s := StartSpan(ctx, "stream")
	done := make(chan struct{})
	go func() { s.End(); close(done) }()
	s.End()
	<-done
	s.End()
	tr.Finish(time.Now())
	if j := tr.Snapshot(); j.Spans[0].DurationNs < 0 {
		t.Fatalf("negative duration after concurrent End: %+v", j.Spans[0])
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "id3", time.Now())
	c1, _ := StartSpan(ctx, "outer")
	StartSpan(c1, "inner-left-open")
	time.Sleep(time.Millisecond)
	tr.Finish(time.Now())
	j := tr.Snapshot()
	in := j.Spans[0].Children[0]
	if in.DurationNs <= 0 {
		t.Fatalf("open span not closed by Finish: %+v", in)
	}
	if in.StartNs+in.DurationNs > j.DurationNs {
		t.Fatalf("finished span exceeds trace duration")
	}
}

func TestTraceStoreRing(t *testing.T) {
	ts := NewTraceStore(2)
	mk := func(id string) *Trace {
		_, tr := NewTrace(context.Background(), id, time.Now())
		return tr
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	ts.Add(a)
	ts.Add(b)
	if ts.Len() != 2 || ts.Get("a") != a || ts.Get("b") != b {
		t.Fatal("store missing fresh traces")
	}
	ts.Add(c) // evicts a
	if ts.Get("a") != nil {
		t.Fatal("oldest trace not evicted")
	}
	if ts.Get("b") != b || ts.Get("c") != c {
		t.Fatal("surviving traces lost")
	}
	ts.Add(nil) // no-op
	if ts.Len() != 2 {
		t.Fatalf("len = %d after nil Add, want 2", ts.Len())
	}
}

func TestNewID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestSnapshotWhileRecording(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "live", time.Now())
	_, s := StartSpan(ctx, "open")
	j := tr.Snapshot() // span still open
	if len(j.Spans) != 1 || j.Spans[0].DurationNs < 0 {
		t.Fatalf("live snapshot wrong: %+v", j.Spans)
	}
	s.End()
}
