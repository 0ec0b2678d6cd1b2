package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// -compare a b judges the runs in b (the change) against those in a
// (the parent). Each argument is one -out document or a comma-separated
// list of them; documents of one (workload, trace) pair are pooled, a
// metric's value on a side being the median over that side's documents.
//
// Every end-to-end (metric, workload) row gets the metric's bound:
//
//	ok          b is not worse than a by more than the bound
//	regressed   b is worse than a by more than the bound and by more
//	            than a's own spread
//	unresolved  a's spread is wider than the bound, so "no change"
//	            cannot be told from a change the bound cares about
//
// The spread is the distance between a's quartiles over its median:
// across documents when a has four or more of the pair, else inside its
// last document (across passes or requests). Exact per-layer metrics
// (counts that repeat bit for bit at a fixed seed) are compared for
// equality when both sides ran the same seeds, and any difference is
// count-drift. The exit code is 1 on a regressed row, a count-drift row,
// or a higher failed share.

type runKey struct {
	workload string
	trace    bool
}

type side struct {
	docs              map[runKey][]*output
	attempted, failed int64
}

func loadSide(arg string) (*side, error) {
	s := &side{docs: map[runKey][]*output{}}
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var docs []*output
		if err := json.Unmarshal(b, &docs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, d := range docs {
			if d.Schema != benchSchema {
				return nil, fmt.Errorf("%s: bench_schema %d, this binary compares schema %d", path, d.Schema, benchSchema)
			}
			s.add(d)
		}
	}
	return s, nil
}

func (s *side) add(d *output) {
	k := runKey{d.Workload, d.Trace}
	s.docs[k] = append(s.docs[k], d)
	s.attempted += d.Attempted
	s.failed += d.Failed
}

func (s *side) failedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// pooled returns a metric's value on one side (median over documents)
// and its relative spread there.
func pooled(docs []*output, get func(*output) (summary, bool)) (value, spread float64, ok bool) {
	var meds []float64
	var single summary
	for _, d := range docs {
		if s, have := get(d); have {
			meds = append(meds, s.Median)
			single = s
		}
	}
	if len(meds) == 0 {
		return 0, 0, false
	}
	s := summarize(meds)
	if len(meds) < 4 {
		s.Q1, s.Q3 = single.Q1, single.Q3
	}
	if s.Median != 0 {
		spread = (s.Q3 - s.Q1) / abs(s.Median)
	}
	return s.Median, spread, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sameSeeds(a, b []*output) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[uint64]int{}
	for _, d := range a {
		seen[d.Seed]++
	}
	for _, d := range b {
		seen[d.Seed]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

func compareFiles(w io.Writer, aArg, bArg string) int {
	a, err := loadSide(aArg)
	if err == nil {
		var b *side
		if b, err = loadSide(bArg); err == nil {
			return compareSides(w, a, b)
		}
	}
	fmt.Fprintln(w, "bench -compare:", err)
	return 2
}

func compareSides(w io.Writer, a, b *side) int {
	bad := 0
	fmt.Fprintf(w, "%-13s %-36s %-6s %13s %13s %8s %7s %7s  %s\n", "workload", "metric", "unit", "a", "b", "change", "bound", "spread", "verdict")
	row := func(wl string, d metricDecl, va, vb, change, spread float64, verdict string) {
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "%-13s %-36s %-6s %13.6g %13.6g %+7.1f%% %7s %6.1f%%  %s\n", wl, d.Name, d.Unit, va, vb, 100*change, bound, 100*spread, verdict)
	}
	for _, wl := range workloads {
		for _, tracedRun := range []bool{false, true} {
			k := runKey{wl.Name, tracedRun}
			da, db := a.docs[k], b.docs[k]
			if len(da) == 0 || len(db) == 0 {
				continue
			}
			decls := endToEnd
			if tracedRun {
				decls = perLayer
			}
			for _, d := range decls {
				get := func(o *output) (summary, bool) {
					m := o.E2E
					if tracedRun {
						m = o.Layer
					}
					s, ok := m[d.Name]
					return s, ok
				}
				va, spread, okA := pooled(da, get)
				vb, _, okB := pooled(db, get)
				if !okA && !okB {
					continue
				}
				if !okA || !okB {
					row(wl.Name, d, va, vb, 0, 0, "missing")
					bad++
					continue
				}
				change := 0.0
				if va != 0 {
					change = (vb - va) / abs(va)
				}
				worse := change
				if d.Better == higher {
					worse = -change
				}
				verdict := "info"
				switch {
				case d.Exact:
					verdict = "ok"
					if va != vb && sameSeeds(da, db) {
						verdict = "count-drift"
						bad++
					} else if va != vb {
						verdict = "info (seeds differ)"
					}
				case d.Bound > 0 && worse > d.Bound && worse > spread:
					verdict = "regressed"
					bad++
				case d.Bound > 0 && spread > d.Bound:
					verdict = "unresolved"
				case d.Bound > 0:
					verdict = "ok"
				}
				row(wl.Name, d, va, vb, change, spread, verdict)
			}
		}
	}
	fa, fb := a.failedShare(), b.failedShare()
	fmt.Fprintf(w, "failed_share: a %d/%d = %g, b %d/%d = %g\n", a.failed, a.attempted, fa, b.failed, b.attempted, fb)
	if fb > fa {
		fmt.Fprintln(w, "failed_share rose")
		bad++
	}
	if bad > 0 {
		return 1
	}
	return 0
}
