package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadsOverlappingPatches pins the registry's behaviour under reads
// that overlap dataset deltas: one writer alternates append and delete
// PATCHes on a dataset bound by a query warm under two rankings while a
// reader per ranking streams it continuously. (a) Once a PATCH is
// acknowledged, the next read of each ranking is the brute-force answer
// for the acknowledged state; (b) a read overlapping PATCHes is the
// answer for one of the states between the last one acknowledged before
// it started and the last one started before it ended — never a mixture
// and never an older one (every appended row carries its round as its
// weight, so each state's answer is unique); (c) no read misses and the
// two rankings stay on one resident handle; (d) every PATCH patches
// exactly that handle.
func TestReadsOverlappingPatches(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const rounds = 200
	aT := [][2]int{{1, 10}, {2, 10}, {3, 11}}
	aW := []float64{0, 0.25, 0.5}
	bT := [][2]int{{10, 100}, {11, 100}}
	bW := []float64{1000, 2000}
	upload := func(name string, rows [][2]int, w []float64) {
		t.Helper()
		tuples := make([]any, len(rows))
		for i, r := range rows {
			tuples[i] = []any{r[0], r[1]}
		}
		resp, body := doJSON(t, "POST", ts.URL+"/v1/datasets/"+name, map[string]any{"tuples": tuples, "weights": w})
		mustStatus(t, resp, body, 200)
	}
	upload("a", aT, aW)
	upload("b", bT, bW)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/queries/q", map[string]any{
		"atoms": []any{
			map[string]any{"dataset": "a", "vars": []string{"A", "B"}},
			map[string]any{"dataset": "b", "vars": []string{"B", "C"}},
		},
	})
	mustStatus(t, resp, body, 200)

	// State n is the data after n acknowledged PATCHes: odd states hold
	// the extra b row (10, 101) weighing its round, even states do not.
	// The answer is the nested-loop join in ranked order, as its weight
	// sequence (which ties leave determined).
	answer := func(state int, agg string) string {
		rows, weights := bT, bW
		if state%2 == 1 {
			rows = append(append([][2]int(nil), bT...), [2]int{10, 101})
			weights = append(append([]float64(nil), bW...), float64((state+1)/2))
		}
		var out []float64
		for i, a := range aT {
			for j, b := range rows {
				if a[1] != b[0] {
					continue
				}
				if agg == "sum" {
					out = append(out, aW[i]+weights[j])
				} else {
					out = append(out, max(aW[i], weights[j]))
				}
			}
		}
		sort.Float64s(out)
		return fmt.Sprint(out)
	}
	read := func(agg string) (got string, cache string) {
		resp, lines := streamTopK(t, ts.URL+"/v1/query/q/topk?k=100&agg="+agg)
		var out []float64
		for _, l := range lines {
			if l.Weight != nil {
				out = append(out, *l.Weight)
			}
		}
		if tr := lines[len(lines)-1]; resp.StatusCode != 200 || !tr.Done || tr.Error != "" {
			t.Errorf("read %s: status %d trailer %+v", agg, resp.StatusCode, tr)
		}
		return fmt.Sprint(out), resp.Header.Get("X-Plan-Cache")
	}
	aggs := []string{"sum", "max"}
	for _, agg := range aggs {
		if got, cache := read(agg); got != answer(0, agg) || cache != "miss" {
			t.Fatalf("warm-up %s: got %s (%s), want %s (miss)", agg, got, cache, answer(0, agg))
		}
	}

	var started, acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, agg := range aggs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := int(acked.Load())
				got, cache := read(agg)
				hi := int(started.Load())
				ok := false
				for n := lo; n <= hi && !ok; n++ {
					ok = got == answer(n, agg)
				}
				if !ok || cache != "hit" {
					t.Errorf("overlapping read %s (%s) = %s, matches no state in [%d, %d]", agg, cache, got, lo, hi)
					return
				}
			}
		}()
	}
	// A failing writer still joins the readers before the test ends.
	defer wg.Wait()
	defer close(stop)
	for n := 1; n <= 2*rounds && !t.Failed(); n++ {
		patch := map[string]any{"delete": []any{[]any{10, 101}}}
		if n%2 == 1 {
			patch = map[string]any{"append": []any{[]any{10, 101}}, "append_weights": []float64{float64((n + 1) / 2)}}
		}
		started.Add(1)
		resp, body := doJSON(t, "PATCH", ts.URL+"/v1/datasets/b", patch)
		mustStatus(t, resp, body, 200)
		acked.Add(1)
		if body["plans_patched"] != float64(1) {
			t.Fatalf("PATCH %d: plans_patched = %v, want 1", n, body["plans_patched"])
		}
		for _, agg := range aggs {
			if got, cache := read(agg); got != answer(n, agg) || cache != "hit" {
				t.Fatalf("read %s after PATCH %d was acknowledged: got %s (%s), want %s (hit)", agg, n, got, cache, answer(n, agg))
			}
		}
	}
	if m, n := s.reg.misses.Load(), s.reg.size(); m != 2 || n != 1 {
		t.Fatalf("registry misses = %d, size = %d; want the 2 warm-up misses and 1 handle", m, n)
	}
}
