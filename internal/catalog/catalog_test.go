package catalog

import (
	"math"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// TestMisraGriesNoFalseNegatives pins the summary's guarantee: every
// value whose true frequency exceeds n/k survives, and its counter
// undercounts by at most n/k. Exercised on a Zipf-skewed stream where
// a handful of hubs dominate.
func TestMisraGriesNoFalseNegatives(t *testing.T) {
	rng := workload.NewRand(11)
	z := workload.NewZipf(rng, 1.2, 10000)
	mg := NewMisraGries(heavyK)
	truth := make(map[int64]int)
	for i := 0; i < 200000; i++ {
		v := int64(z.Next())
		truth[v]++
		mg.Add(v)
	}
	if mg.Total() != 200000 {
		t.Fatalf("Total = %d, want 200000", mg.Total())
	}
	slack := mg.Total() / heavyK
	heavies := 0
	for v, f := range truth {
		c := mg.counts[v]
		if c > f {
			t.Fatalf("counter for %d overcounts: %d > true %d", v, c, f)
		}
		if f > slack {
			heavies++
			if c == 0 {
				t.Fatalf("false negative: value %d has frequency %d > n/k = %d but no counter", v, f, slack)
			}
			if f-c > slack {
				t.Fatalf("counter for %d undercounts by %d, bound is %d", v, f-c, slack)
			}
		}
	}
	if heavies == 0 {
		t.Fatal("stream produced no heavy hitters — the test exercises nothing")
	}
	// Entries are sorted by descending count and mirror the counters.
	entries := mg.Entries()
	for i := 1; i < len(entries); i++ {
		if entries[i].Count > entries[i-1].Count {
			t.Fatalf("Entries not sorted: %v before %v", entries[i-1], entries[i])
		}
	}
}

// TestDistinctCounterExactSmall: below the conversion threshold the
// counter is exact, whatever the duplication pattern.
func TestDistinctCounterExactSmall(t *testing.T) {
	d := NewDistinctCounter()
	for round := 0; round < 50; round++ { // duplicate-heavy: 50 copies each
		for v := int64(0); v < 1000; v++ {
			d.Add(v)
		}
	}
	if !d.Exact() {
		t.Fatal("counter degraded below the exact threshold")
	}
	if got := d.Estimate(); got != 1000 {
		t.Fatalf("Estimate = %g, want exactly 1000", got)
	}
}

// TestDistinctCounterErrorBounds drives the counter past the exact
// threshold on adversarial inputs — sequential values (worst case for
// weak hashes), duplicate-heavy streams, and huge sparse values — and
// checks the estimate stays within 5% (3× the theoretical 1.6%
// standard error at 4096 registers).
func TestDistinctCounterErrorBounds(t *testing.T) {
	cases := []struct {
		name string
		feed func(d *DistinctCounter)
		want float64
	}{
		{"sequential", func(d *DistinctCounter) {
			for v := int64(0); v < 100000; v++ {
				d.Add(v)
			}
		}, 100000},
		{"duplicate-heavy", func(d *DistinctCounter) {
			for round := 0; round < 20; round++ {
				for v := int64(0); v < 30000; v++ {
					d.Add(v)
				}
			}
		}, 30000},
		{"sparse-huge", func(d *DistinctCounter) {
			for v := int64(0); v < 50000; v++ {
				d.Add(v * 1000003)
			}
		}, 50000},
	}
	for _, tc := range cases {
		d := NewDistinctCounter()
		tc.feed(d)
		if d.Exact() {
			t.Fatalf("%s: counter did not degrade past %d values", tc.name, exactDistinctLimit)
		}
		got := d.Estimate()
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.05 {
			t.Fatalf("%s: estimate %g for %g distinct, relative error %.3f > 0.05", tc.name, got, tc.want, rel)
		}
	}
}

// TestCollectStats sanity-checks one Collect pass end to end.
func TestCollectStats(t *testing.T) {
	r := relation.New("R", "X", "Y")
	for i := 0; i < 100; i++ {
		r.Add(relation.Value(i%10), 7) // X: 10 distinct; Y: constant 7
	}
	st := Collect(r)
	if st.Rows != 100 || len(st.Cols) != 2 {
		t.Fatalf("Rows/Cols = %d/%d", st.Rows, len(st.Cols))
	}
	x, y := st.Cols[0], st.Cols[1]
	if !x.DistinctExact || x.Distinct != 10 || x.Min != 0 || x.Max != 9 {
		t.Fatalf("X stats: %+v", x)
	}
	if y.Distinct != 1 || y.Min != 7 || y.Max != 7 {
		t.Fatalf("Y stats: %+v", y)
	}
	if len(y.Heavy) != 1 || y.Heavy[0].Value != 7 || y.Heavy[0].Count != 100 {
		t.Fatalf("Y heavy hitters: %+v", y.Heavy)
	}
}

// TestCostModelSkewSensitivity: with identical cardinalities, the model
// must cost a join over a skewed shared column higher than one over a
// uniform column — the heavy-hitter refinement at work.
func TestCostModelSkewSensitivity(t *testing.T) {
	mk := func(name string, s float64, seed uint64) *relation.Relation {
		return workload.ZipfRelation(name, 5000, 500, s, 0, workload.UniformWeights(), seed)
	}
	edges := []hypergraph.Edge{hypergraph.E("R1", "B", "A"), hypergraph.E("R2", "B", "C")}
	uniform := NewCostModel(edges, []*relation.Relation{mk("R1", 0, 1), mk("R2", 0, 2)}, nil)
	skewed := NewCostModel(edges, []*relation.Relation{mk("R1", 1.2, 1), mk("R2", 1.2, 2)}, nil)
	if uniform == nil || skewed == nil {
		t.Fatal("cost model construction failed")
	}
	vars := []string{"A", "B", "C"}
	eu, es := uniform.EstimateVars(vars), skewed.EstimateVars(vars)
	if es <= eu {
		t.Fatalf("skewed join estimated at %g, uniform at %g — heavy hitters not reflected", es, eu)
	}
}

// TestChooseOrderValid: the chosen order covers exactly the atoms'
// variables, whatever atom shapes are thrown at it.
func TestChooseOrderValid(t *testing.T) {
	inst := workload.SkewedChordedCycle(100, 50, 3, 1.1, workload.UniformWeights(), 5)
	atoms := make([]wcoj.Atom, len(inst.H.Edges))
	for i, e := range inst.H.Edges {
		atoms[i] = wcoj.Atom{Rel: inst.Rels[i], Vars: e.Vars}
	}
	order, err := ChooseOrder(atoms)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.H.Vars()
	if len(order) != len(want) {
		t.Fatalf("order %v over vars %v", order, want)
	}
	seen := make(map[string]bool)
	for _, v := range order {
		seen[v] = true
	}
	for _, v := range want {
		if !seen[v] {
			t.Fatalf("order %v misses %s", order, v)
		}
	}
}
