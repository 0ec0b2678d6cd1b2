package repro

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestTiesAtKBoundary pins what the engine promises when k falls inside
// a block of equal-weight answers: every variant returns the same weight
// *sequence* for TopK(k) and the same tuples strictly above the k-th
// weight; which members of the tie block fill the last places is the
// variant's own business (documented on WithVariant). Weights drawn from
// {0, 1} make the largest block over 30 % of the output on both an
// acyclic plan and the 4-cycle's three merged trees, cold and one
// ApplyDelta epoch later.
func TestTiesAtKBoundary(t *testing.T) {
	binary := func(r *workload.Rand) float64 { return float64(r.Intn(2)) }
	cases := []struct {
		kind  string
		inst  *workload.Instance
		trees int
	}{
		{"acyclic", workload.Path(3, 60, 6, binary, 21), 0},
		{"four-cycle", workload.Cycle(4, 40, 8, binary, 22), 3},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			mirrors := make([]*dataMirror, len(tc.inst.Rels))
			for i, r := range tc.inst.Rels {
				mirrors[i] = &dataMirror{tuples: r.Tuples, weights: r.Weights}
			}
			p, err := Compile(mirrorQuery(tc.inst, mirrors))
			if err != nil {
				t.Fatal(err)
			}
			if got := p.PlanStats().Kind; got != tc.kind {
				t.Fatalf("compiled to kind %s, want %s", got, tc.kind)
			}
			check := func(label string) {
				t.Helper()
				cold, err := Compile(mirrorQuery(tc.inst, mirrors))
				if err != nil {
					t.Fatal(err)
				}
				for _, agg := range []struct {
					name string
					opt  RunOption
				}{{"SumCost", WithRanking(SumCost)}, {"MaxCost", WithRanking(MaxCost)}} {
					// Batch sorts the whole output: the reference order owes
					// nothing to a priority queue.
					ref, err := cold.TopK(0, agg.opt, WithVariant(Batch))
					if err != nil {
						t.Fatal(err)
					}
					lo, hi := largestTieBlock(ref)
					if 10*(hi-lo) < 3*len(ref) || hi-lo < 3 {
						t.Fatalf("%s %s: largest tie block is %d of %d answers, want ≥ 30 %%", label, agg.name, hi-lo, len(ref))
					}
					k := (lo + hi) / 2 // lo < k < hi: the cut is inside the block
					above := tupleKeys(ref[:lo])
					for _, v := range []Variant{Eager, Lazy, Quick, All, Take2, Rec, Batch} {
						got, err := p.TopK(k, agg.opt, WithVariant(v))
						if err != nil {
							t.Fatalf("%s %s %s: %v", label, agg.name, v, err)
						}
						if len(got) != k {
							t.Fatalf("%s %s %s: %d results, want %d", label, agg.name, v, len(got), k)
						}
						for i := range got {
							if got[i].Weight != ref[i].Weight {
								t.Fatalf("%s %s %s: weight %d is %v, want %v", label, agg.name, v, i, got[i].Weight, ref[i].Weight)
							}
						}
						if !slices.Equal(tupleKeys(got[:lo]), above) {
							t.Fatalf("%s %s %s: the %d answers above the k-th weight differ from the reference", label, agg.name, v, lo)
						}
					}
				}
			}
			check("cold")

			const atom = 1
			d := Delta{
				Rel:           tc.inst.H.Edges[atom].Name,
				Delete:        []Tuple{mirrors[atom].tuples[0]},
				Append:        []Tuple{mirrors[atom].tuples[1], mirrors[atom].tuples[2]},
				AppendWeights: []float64{0, 1},
			}
			if err := p.ApplyDelta([]Delta{d}); err != nil {
				t.Fatal(err)
			}
			mirrors[atom].apply(d)
			check("epoch 2")
			if st := p.PlanStats(); st.Epoch != 2 {
				t.Fatalf("epoch %d after one delta, want 2", st.Epoch)
			} else if tc.trees > 0 && len(st.Rankings[0].BagSizes) != tc.trees {
				t.Fatalf("%d merged trees, want %d", len(st.Rankings[0].BagSizes), tc.trees)
			}
		})
	}
}

// largestTieBlock returns the bounds [lo, hi) of the longest run of
// equal weights in a ranked result list.
func largestTieBlock(rs []Result) (lo, hi int) {
	for i := 0; i < len(rs); {
		j := i
		for j < len(rs) && rs[j].Weight == rs[i].Weight {
			j++
		}
		if j-i > hi-lo {
			lo, hi = i, j
		}
		i = j
	}
	return lo, hi
}

// tupleKeys renders results as a sorted multiset of "tuple weight" keys.
func tupleKeys(rs []Result) []string {
	keys := make([]string, len(rs))
	for i, r := range rs {
		keys[i] = fmt.Sprint(r.Tuple, r.Weight)
	}
	slices.Sort(keys)
	return keys
}
