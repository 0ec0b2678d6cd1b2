package repro

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/ranking"
	"repro/internal/workload"
)

// The randomized parity harness: seeded random queries (acyclic trees,
// cycles, chorded cycles — workload.RandomCQ) with optionally
// Zipf-skewed data, evaluated three ways per aggregate:
//
//   - sequential (atWorkers(1)),
//   - skew-aware parallel (atWorkers(8)), which must be
//     bit-identical to sequential — same tuples, same weights, same
//     order, and
//   - a per-relation brute-force backtracker, matched as a multiset of
//     (output tuple, weight) with 1e-9 weight tolerance since the
//     engine may combine weights in a different order.
//
// A small corpus runs in the default test suite;
// parity_slow_test.go (-tags slow) widens it.

var parityAggregates = []struct {
	name string
	agg  ranking.Aggregate
}{
	{"SumCost", SumCost},
	{"SumBenefit", SumBenefit},
	{"MaxCost", MaxCost},
	{"MinBenefit", MinBenefit},
	{"ProductCost", ProductCost},
}

// bruteGroups backtracks over per-relation tuples and groups the
// aggregated weights of every join answer by its projected output
// tuple (ascending within each group).
func bruteGroups(inst *workload.Instance, outAttrs []string, agg ranking.Aggregate) map[string][]float64 {
	binding := map[string]Value{}
	groups := map[string][]float64{}
	var rec func(i int, w float64)
	rec = func(i int, w float64) {
		if i == len(inst.H.Edges) {
			key := ""
			for _, a := range outAttrs {
				key += fmt.Sprintf("%d,", binding[a])
			}
			groups[key] = append(groups[key], w)
			return
		}
		e := inst.H.Edges[i]
		r := inst.Rels[i]
	tuples:
		for ti, t := range r.Tuples {
			var bound []string
			for c, v := range e.Vars {
				if bv, ok := binding[v]; ok {
					if bv != t[c] {
						for _, b := range bound {
							delete(binding, b)
						}
						continue tuples
					}
				} else {
					binding[v] = t[c]
					bound = append(bound, v)
				}
			}
			rec(i+1, agg.Combine(w, r.Weights[ti]))
			for _, b := range bound {
				delete(binding, b)
			}
		}
	}
	rec(0, agg.Identity())
	for _, ws := range groups {
		sort.Float64s(ws)
	}
	return groups
}

// engineGroups shapes a result slice like bruteGroups' output.
func engineGroups(results []Result) map[string][]float64 {
	groups := map[string][]float64{}
	for _, r := range results {
		key := ""
		for _, v := range r.Tuple {
			key += fmt.Sprintf("%d,", v)
		}
		groups[key] = append(groups[key], r.Weight)
	}
	for _, ws := range groups {
		sort.Float64s(ws)
	}
	return groups
}

// parityCase checks one generated instance across all five aggregates.
func parityCase(t *testing.T, inst *workload.Instance, workers int) {
	t.Helper()
	q := instanceQuery(inst)
	// runAll compiles q and drains every aggregate, all at n workers.
	runAll := func(n int) (*Prepared, [][]Result) {
		var p *Prepared
		out := make([][]Result, len(parityAggregates))
		atWorkers(t, n, func() {
			var err error
			if p, err = Compile(q); err != nil {
				t.Fatalf("compile at %d workers: %v", n, err)
			}
			for i, a := range parityAggregates {
				if out[i], err = p.TopK(0, WithRanking(a.agg)); err != nil {
					t.Fatalf("%s run at %d workers: %v", a.name, n, err)
				}
			}
		})
		return p, out
	}
	seqP, seqs := runAll(1)
	_, pars := runAll(workers)
	for i, a := range parityAggregates {
		seq, par := seqs[i], pars[i]

		// Skew-aware parallel ≡ sequential, bit for bit.
		if len(par) != len(seq) {
			t.Fatalf("%s: parallel returned %d results, sequential %d", a.name, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Weight != seq[i].Weight {
				t.Fatalf("%s result %d: parallel weight %v, sequential %v", a.name, i, par[i].Weight, seq[i].Weight)
			}
			for c := range seq[i].Tuple {
				if par[i].Tuple[c] != seq[i].Tuple[c] {
					t.Fatalf("%s result %d: parallel tuple %v, sequential %v", a.name, i, par[i].Tuple, seq[i].Tuple)
				}
			}
		}

		// Sequential ≡ brute force as a (tuple, weight) multiset.
		if diff := groupsDiffer(engineGroups(seq), bruteGroups(inst, seqP.OutAttrs(), a.agg)); diff != "" {
			t.Fatalf("%s: %s", a.name, diff)
		}
	}
}

// groupsDiffer reports how the engine's groups differ from the brute
// force's as a (tuple, weight) multiset, with 1e-9 weight tolerance; ""
// if they do not.
func groupsDiffer(got, want map[string][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("engine produced %d distinct tuples, brute force %d", len(got), len(want))
	}
	for key, ww := range want {
		gw, ok := got[key]
		if !ok {
			return fmt.Sprintf("brute-force tuple %s missing from engine output", key)
		}
		if len(gw) != len(ww) {
			return fmt.Sprintf("tuple %s: engine multiplicity %d, brute force %d", key, len(gw), len(ww))
		}
		for i := range ww {
			if math.Abs(gw[i]-ww[i]) > 1e-9 {
				return fmt.Sprintf("tuple %s weight %d: engine %v, brute force %v", key, i, gw[i], ww[i])
			}
		}
	}
	return ""
}

// parityCorpus runs seeds 0..n-1, alternating uniform and Zipf-skewed
// data so both the light-only and the heavy/light execution paths are
// exercised.
func parityCorpus(t *testing.T, seeds, nRels, tuplesPerRel, domain, workers int) {
	t.Helper()
	for seed := 0; seed < seeds; seed++ {
		zipfS := 0.0
		if seed%2 == 1 {
			zipfS = 1.2
		}
		inst := workload.RandomCQ(nRels, tuplesPerRel, domain, zipfS,
			workload.UniformWeights(), uint64(seed))
		t.Run(fmt.Sprintf("seed=%d/rels=%d", seed, len(inst.H.Edges)), func(t *testing.T) {
			parityCase(t, inst, workers)
		})
	}
}

func TestRandomizedParity(t *testing.T) {
	parityCorpus(t, 10, 5, 24, 8, 8)
}

// TestRandomizedParitySkewed leans fully on the Zipf knob with a hotter
// exponent and a smaller domain, so every seed has genuine heavy
// hitters.
func TestRandomizedParitySkewed(t *testing.T) {
	for seed := 100; seed < 106; seed++ {
		inst := workload.RandomCQ(4, 30, 6, 1.6,
			workload.UniformWeights(), uint64(seed))
		t.Run(fmt.Sprintf("seed=%d/rels=%d", seed, len(inst.H.Edges)), func(t *testing.T) {
			parityCase(t, inst, 4)
		})
	}
}
