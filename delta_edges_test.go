package repro

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestDeltaThroughEmptyRelation walks one atom of a handle through the
// edges a delete set can reach — every row deleted (the relation, and so
// the join, is empty), one row appended back, and a row replaced by a
// delete and an append of the same values in one Delta — on the three
// ways a handle can be built (join tree, canonical triangle, a GHD of
// one bag). After each step the warm handle is bit-identical to a cold
// Compile on the same data.
func TestDeltaThroughEmptyRelation(t *testing.T) {
	ghdInst, cm, _ := oneBagGHD(t)
	cases := []struct {
		kind string
		inst *workload.Instance
		opt  CompileOption
	}{
		// Structural planning pins one plan on both sides of each
		// comparison (see deltaParityCase); the GHD needs its cost model
		// to be the one-bag plan at all.
		{"acyclic", workload.Path(3, 40, 6, workload.UniformWeights(), 11), WithStatistics(nil)},
		{"triangle", workload.Cycle(3, 40, 7, workload.UniformWeights(), 12), WithStatistics(nil)},
		{"ghd", ghdInst, WithCostModel(cm)},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			mirrors := make([]*dataMirror, len(tc.inst.Rels))
			for i, r := range tc.inst.Rels {
				mirrors[i] = &dataMirror{tuples: r.Tuples, weights: r.Weights}
			}
			p, err := Compile(mirrorQuery(tc.inst, mirrors), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.PlanStats().Kind; got != tc.kind {
				t.Fatalf("compiled to kind %s, want %s", got, tc.kind)
			}
			for _, a := range parityAggregates { // warm: deltas patch, not rebuild lazily
				if _, err := p.TopK(1, WithRanking(a.agg)); err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := p.Count(); n == 0 {
				t.Fatal("the fixture must have answers")
			}

			// step applies d to the handle and the mirror, compares the
			// handle with a cold compile, and returns the answer count.
			step := func(label string, d Delta) int {
				t.Helper()
				if err := p.ApplyDelta([]Delta{d}); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				mirrors[edgeIndex(tc.inst, d.Rel)].apply(d)
				cold, err := Compile(mirrorQuery(tc.inst, mirrors), tc.opt)
				if err != nil {
					t.Fatalf("%s: cold compile: %v", label, err)
				}
				for _, a := range parityAggregates {
					got, err := p.TopK(0, WithRanking(a.agg))
					if err != nil {
						t.Fatalf("%s %s: %v", label, a.name, err)
					}
					want, err := cold.TopK(0, WithRanking(a.agg))
					if err != nil {
						t.Fatalf("%s %s cold: %v", label, a.name, err)
					}
					assertBitIdentical(t, label+" "+a.name, got, want)
				}
				n, err := p.Count()
				empty, err2 := p.IsEmpty()
				wantN, _ := cold.Count()
				if err != nil || err2 != nil || n != wantN || empty != (n == 0) {
					t.Fatalf("%s: Count = %d (%v), IsEmpty = %v (%v), cold Count = %d", label, n, err, empty, err2, wantN)
				}
				return n
			}

			const atom = 1
			rel := tc.inst.H.Edges[atom].Name
			orig := *mirrors[atom]
			// The row to bring back is one under the best answer, so the
			// join is non-empty again once it is.
			best, err := p.TopK(1)
			if err != nil {
				t.Fatal(err)
			}
			back := make(Tuple, len(tc.inst.H.Edges[atom].Vars))
			for c, v := range tc.inst.H.Edges[atom].Vars {
				back[c] = best[0].Tuple[slices.Index(p.OutAttrs(), v)]
			}

			if n := step("delete every row", Delta{Rel: rel, Delete: orig.tuples}); n != 0 {
				t.Fatalf("an empty %s still joins to %d answers", rel, n)
			}
			if n := step("re-append one row", Delta{Rel: rel, Append: []Tuple{back}, AppendWeights: []float64{0.5}}); n == 0 {
				t.Fatal("the re-appended row joins to nothing")
			}
			step("replace the row", Delta{Rel: rel, Delete: []Tuple{back}, Append: []Tuple{back}, AppendWeights: []float64{0.125}})
			if st := p.PlanStats(); st.Epoch != 4 {
				t.Fatalf("epoch %d after three effective deltas, want 4", st.Epoch)
			}
		})
	}
}

// TestDeltaRejectsNaNWeight: a NaN append weight is refused with the
// relation and row named and the handle keeps its epoch; ±Inf pass.
func TestDeltaRejectsNaNWeight(t *testing.T) {
	p, err := Compile(NewQuery().
		Rel("R", []string{"A", "B"}, []Tuple{{1, 2}}, []float64{1}).
		Rel("S", []string{"B", "C"}, []Tuple{{2, 3}}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	err = p.ApplyDelta([]Delta{{Rel: "S", Append: []Tuple{{2, 4}, {2, 5}}, AppendWeights: []float64{7, math.NaN()}}})
	if err == nil || !strings.Contains(err.Error(), "append to S row 1 has a NaN weight") {
		t.Fatalf("NaN append weight: got %v", err)
	}
	if n, _ := p.Count(); n != 1 || p.Epoch() != 1 {
		t.Fatalf("a refused delta changed the handle: %d answers, epoch %d", n, p.Epoch())
	}
	if err := p.ApplyDelta([]Delta{{Rel: "S", Append: []Tuple{{2, 4}}, AppendWeights: []float64{math.Inf(1)}}}); err != nil {
		t.Fatalf("+Inf append weight: %v", err)
	}
	got, err := p.TopK(0, WithRanking(MaxCost))
	if err != nil || len(got) != 2 || got[0].Weight != 1 || !math.IsInf(got[1].Weight, 1) {
		t.Fatalf("after the +Inf append: %v, %v", got, err)
	}
}

// TestProductCostRejectsNonPositiveWeights: product is monotone on
// positive weights only, so a zero or negative weight under ProductCost
// fails the Run — naming relation and row — instead of enumerating in an
// order that depends on the variant. Checked on a join tree, a canonical
// cycle and a searched GHD (the three build sites), cold and after a
// delta that introduces the bad row: with ProductCost warm the delta is
// refused and the handle keeps its epoch; with it cold the delta lands
// and only ProductCost fails. The other rankings take the same data.
func TestProductCostRejectsNonPositiveWeights(t *testing.T) {
	variants := []Variant{Eager, Lazy, Quick, All, Take2, Rec, Batch}
	others := []struct {
		name string
		opt  RunOption
	}{{"SumCost", WithRanking(SumCost)}, {"SumBenefit", WithRanking(SumBenefit)}, {"MaxCost", WithRanking(MaxCost)}, {"MinBenefit", WithRanking(MinBenefit)}}
	edges := []Tuple{{1, 2}, {2, 3}, {3, 1}, {2, 1}, {1, 3}, {3, 2}}
	positive := []float64{2, 3, 0.5, 4, 1, 7}
	kinds := map[string][][2]string{
		"acyclic":    {{"A", "B"}, {"B", "C"}, {"C", "D"}},
		"four-cycle": {{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "A"}},
		"ghd":        {{"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "D"}, {"D", "E"}, {"E", "A"}},
	}
	build := func(vars [][2]string, badAtom int, bad float64) *Query {
		q := NewQuery()
		for i, v := range vars {
			w := slices.Clone(positive)
			if i == badAtom {
				w[4] = bad
			}
			q.Rel("R"+string(rune('1'+i)), v[:], edges, w)
		}
		return q
	}
	mustFail := func(t *testing.T, label string, p *Prepared, want string) {
		t.Helper()
		for _, v := range variants {
			if _, err := p.TopK(0, WithRanking(ProductCost), WithVariant(v)); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s %s: ProductCost error = %v, want one naming %q", label, v, err, want)
			}
		}
		for _, o := range others {
			if got, err := p.TopK(0, o.opt); err != nil || len(got) == 0 {
				t.Fatalf("%s: %s on the same data: %d results, %v", label, o.name, len(got), err)
			}
		}
	}
	for kind, vars := range kinds {
		t.Run(kind, func(t *testing.T) {
			for _, bad := range []float64{0, -3} {
				cold, err := Compile(build(vars, 1, bad))
				if err != nil {
					t.Fatal(err)
				}
				mustFail(t, "cold", cold, "relation R2 row 4 has weight")
			}

			warm, err := Compile(build(vars, -1, 0))
			if err != nil {
				t.Fatal(err)
			}
			if got := warm.PlanStats().Kind; got != kind {
				t.Fatalf("compiled to kind %s, want %s", got, kind)
			}
			before, err := warm.TopK(0, WithRanking(ProductCost))
			if err != nil || len(before) == 0 {
				t.Fatalf("positive weights: %d results, %v", len(before), err)
			}
			badRow := []Delta{{Rel: "R3", Append: []Tuple{{1, 1}}, AppendWeights: []float64{-1}}}
			if err := warm.ApplyDelta(badRow); err == nil || !strings.Contains(err.Error(), "relation R3 row 6 has weight -1") {
				t.Fatalf("delta under a warm ProductCost: %v, want an error naming relation R3 row 6", err)
			}
			if warm.Epoch() != 1 {
				t.Fatalf("a refused delta moved the handle to epoch %d", warm.Epoch())
			}
			if after, err := warm.TopK(0, WithRanking(ProductCost)); err != nil || !slices.EqualFunc(before, after, func(a, b Result) bool { return a.Weight == b.Weight }) {
				t.Fatalf("after the refused delta: %v, %v; want the %d results of before", after, err, len(before))
			}

			lazy, err := Compile(build(vars, -1, 0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lazy.TopK(1); err != nil {
				t.Fatal(err)
			}
			if err := lazy.ApplyDelta(badRow); err != nil || lazy.Epoch() != 2 {
				t.Fatalf("delta with only SumCost warm: %v, epoch %d", err, lazy.Epoch())
			}
			mustFail(t, "after delta", lazy, "relation R3 row 6 has weight -1")
		})
	}
}
