package repro

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// collectNames flattens a span tree into name -> count.
func collectNames(spans []*obs.SpanJSON, into map[string]int) {
	for _, s := range spans {
		into[s.Name]++
		collectNames(s.Children, into)
	}
}

// findSpan returns the first span with the given name, depth-first.
func findSpan(spans []*obs.SpanJSON, name string) *obs.SpanJSON {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
		if f := findSpan(s.Children, name); f != nil {
			return f
		}
	}
	return nil
}

// spanShape renders a span tree as name(children...), children in
// start order, so a test can pin which span sits under which.
func spanShape(s *obs.SpanJSON) string {
	if len(s.Children) == 0 {
		return s.Name
	}
	kids := make([]string, len(s.Children))
	for i, c := range s.Children {
		kids[i] = spanShape(c)
	}
	return s.Name + "(" + strings.Join(kids, " ") + ")"
}

func TestTraceSpansAcyclic(t *testing.T) {
	ctx, tr := obs.NewTrace(context.Background(), obs.NewID(), time.Now())
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 10}, {1, 11}, {2, 10}}, []float64{1, 5, 2}).
		Rel("S", []string{"B", "C"}, []Tuple{{10, 100}, {10, 101}, {11, 100}}, []float64{10, 1, 0})
	p, err := Compile(q, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	it, err := p.Run(WithContext(ctx), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	tr.Finish(time.Now())

	j := tr.Snapshot()
	names := map[string]int{}
	collectNames(j.Spans, names)
	for _, want := range []string{"compile", "cost-model", "plan-build", "reduce", "prepare", "instantiate", "enumerate"} {
		if names[want] == 0 {
			t.Errorf("missing span %q in acyclic trace (got %v)", want, names)
		}
	}
	c := findSpan(j.Spans, "compile")
	if c == nil || c.Attrs["kind"] != "acyclic" {
		t.Fatalf("compile span kind attr wrong: %+v", c)
	}
	// The atom tree is built in one pass: reduce under plan-build, and
	// no grouping span of its own.
	if got, want := spanShape(c), "compile(cost-model plan-build(reduce))"; got != want {
		t.Errorf("compile span tree = %s, want %s", got, want)
	}
	enum := findSpan(j.Spans, "enumerate")
	if enum == nil {
		t.Fatal("no enumerate span")
	}
	var evs []string
	for _, e := range enum.Events {
		evs = append(evs, e.Name)
	}
	if len(evs) != 2 || evs[0] != "first-result" || evs[1] != "kth-result" {
		t.Errorf("enumerate events = %v, want [first-result kth-result]", evs)
	}
	// Phase durations nest within the trace wall time.
	for name := range names {
		s := findSpan(j.Spans, name)
		if s.StartNs < 0 || s.StartNs+s.DurationNs > j.DurationNs {
			t.Errorf("span %s [%d,+%d] exceeds trace duration %d", name, s.StartNs, s.DurationNs, j.DurationNs)
		}
	}
}

func TestTraceSpansCyclic(t *testing.T) {
	ctx, tr := obs.NewTrace(context.Background(), obs.NewID(), time.Now())
	// Triangle query: all pairs over a small clique.
	var e []Tuple
	var w []float64
	for a := int64(0); a < 4; a++ {
		for b := int64(0); b < 4; b++ {
			if a != b {
				e = append(e, Tuple{a, b})
				w = append(w, float64(a+b))
			}
		}
	}
	q := NewQuery().
		Rel("R", []string{"A", "B"}, e, w).
		Rel("S", []string{"B", "C"}, e, w).
		Rel("T", []string{"C", "A"}, e, w)
	p, err := Compile(q, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.TopK(3, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("topk returned %d results", len(res))
	}
	tr.Finish(time.Now())

	j := tr.Snapshot()
	names := map[string]int{}
	collectNames(j.Spans, names)
	for _, want := range []string{"compile", "cost-model", "prepare", "materialize", "generic-join", "enumerate"} {
		if names[want] == 0 {
			t.Errorf("missing span %q in cyclic trace (got %v)", want, names)
		}
	}
	if c := findSpan(j.Spans, "compile"); c == nil || c.Attrs["kind"] != "cycle" {
		t.Errorf("compile span kind attr wrong: %+v", c)
	}
	if m := findSpan(j.Spans, "materialize"); m.Attrs["bag"] == "" {
		t.Errorf("materialize span missing bag label: %+v", m)
	}

	// A 4-cycle: its bags are hash joins and its three bag trees are
	// built by the T-DP layer, all under the run's prepare span.
	ctx, tr = obs.NewTrace(context.Background(), obs.NewID(), time.Now())
	q = NewQuery().
		Rel("R", []string{"A", "B"}, e, w).
		Rel("S", []string{"B", "C"}, e, w).
		Rel("T", []string{"C", "D"}, e, w).
		Rel("U", []string{"D", "A"}, e, w)
	p, err = Compile(q, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TopK(3, WithContext(ctx)); err != nil {
		t.Fatal(err)
	}
	tr.Finish(time.Now())
	prep := findSpan(tr.Snapshot().Spans, "prepare")
	if prep == nil {
		t.Fatal("no prepare span in the 4-cycle trace")
	}
	names = map[string]int{}
	collectNames(prep.Children, names)
	for _, want := range []string{"materialize", "plan-build", "reduce", "instantiate"} {
		if names[want] == 0 {
			t.Errorf("missing span %q under prepare in the 4-cycle trace (got %v)", want, names)
		}
	}
	// Each bag tree is fully reduced, then built in one pass.
	if names["group"] != 0 || names["plan-build"] != 3 || names["reduce"] != 6 {
		t.Errorf("4-cycle prepare spans %v, want 3 plan-build, 6 reduce and no group", names)
	}
	for _, s := range prep.Children {
		if s.Name == "plan-build" && spanShape(s) != "plan-build(reduce)" {
			t.Errorf("4-cycle bag tree build = %s, want plan-build(reduce)", spanShape(s))
		}
	}
	if m := findSpan(prep.Children, "materialize"); m != nil && (m.Attrs["bag"] == "" || m.Attrs["rows"] == "") {
		t.Errorf("4-cycle materialize span missing bag/rows attributes: %+v", m)
	}
}

func TestTraceSpansDelta(t *testing.T) {
	ctx, tr := obs.NewTrace(context.Background(), obs.NewID(), time.Now())
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 10}, {2, 11}}, []float64{1, 2}).
		Rel("S", []string{"B", "C"}, []Tuple{{10, 100}, {11, 101}}, []float64{3, 4})
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	// Build the default ranking so the delta patches a warm artefact.
	if _, err := p.TopK(1); err != nil {
		t.Fatal(err)
	}
	err = p.ApplyDelta([]Delta{{Rel: "R", Append: []Tuple{{3, 10}}}}, WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish(time.Now())

	j := tr.Snapshot()
	names := map[string]int{}
	collectNames(j.Spans, names)
	for _, want := range []string{"apply-delta", "plan-delta", "instantiate-delta"} {
		if names[want] == 0 {
			t.Errorf("missing span %q in delta trace (got %v)", want, names)
		}
	}
	if pd := findSpan(j.Spans, "plan-delta"); spanShape(pd) != "plan-delta(reduce-delta)" {
		t.Errorf("plan-delta span tree = %s, want plan-delta(reduce-delta)", spanShape(pd))
	}
	ad := findSpan(j.Spans, "apply-delta")
	if ad.Attrs["epoch"] != "2" || ad.Attrs["appended"] != "1" {
		t.Errorf("apply-delta attrs wrong: %+v", ad.Attrs)
	}
	if len(ad.Events) != 1 || ad.Events[0].Name != "changed:R" {
		t.Errorf("apply-delta events = %+v", ad.Events)
	}
}

// TestRunNoTraceZeroAlloc pins the tentpole requirement that span
// plumbing costs nothing when no recorder is installed: a Run on a
// warm handle performs the same number of allocations as before the
// tracing layer existed (the iterator machinery itself allocates; the
// guard here is that the count is trace-independent).
func TestRunNoTraceZeroAlloc(t *testing.T) {
	q := NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 10}, {2, 11}}, []float64{1, 2}).
		Rel("S", []string{"B", "C"}, []Tuple{{10, 100}, {11, 101}}, []float64{3, 4})
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TopK(1); err != nil { // warm the plan
		t.Fatal(err)
	}
	run := func() {
		it, err := p.Run(WithK(1))
		if err != nil {
			t.Fatal(err)
		}
		it.Next()
		it.Close()
	}
	base := testing.AllocsPerRun(50, run)

	// The same run with a trace installed allocates more (spans are
	// recorded); without one it must not regress past the baseline.
	again := testing.AllocsPerRun(50, run)
	if again > base {
		t.Fatalf("untraced Run allocations grew: %v then %v", base, again)
	}
}
