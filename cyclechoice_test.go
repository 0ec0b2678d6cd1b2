package repro

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/decomp"
	"repro/internal/ranking"
	"repro/internal/workload"
)

// A cycle of length ℓ ≥ 5 compiles to the cheaper, by the cost model's
// bag estimates, of two closed-form plans: the fhtw-2 fan or one
// Generic-Join bag over the whole walk (decomp.CycleShape). These tests
// pin the choice on known graphs and check that the two plans are the
// same answers under every ranking and variant, cold and after deltas.

var allVariants = []Variant{Eager, Lazy, Quick, All, Take2, Rec, Batch}

// TestCycleChoicePinned: sparse 5- and 6-cycles (the benchmark's
// RandomGraph(400, 2000)) compile to one bag that materialises exactly
// the answers; dense ones keep the fan, materialising what the fan
// always has; the triangle and the 4-cycle are not candidates.
func TestCycleChoicePinned(t *testing.T) {
	cases := []struct {
		name                string
		l, vertices, edges  int
		kind, decomposition string
		bags                [][]int // nil: one bag of Solutions rows
	}{
		{"sparse c5", 5, 400, 2000, "cycle", "{A0,A1,A2,A3,A4} (width 2.5)", nil},
		{"sparse c6", 6, 400, 2000, "cycle", "{A0,A1,A2,A3,A4,A5} (width 3)", nil},
		{"dense c5", 5, 200, 8000, "cycle", "{A0,A1,A2} {A0,A2,A3} {A0,A3,A4} (width 2)",
			[][]int{{319745, 1600000, 319745}}},
		{"dense c6", 6, 100, 4000, "cycle", "{A0,A1,A2} {A0,A2,A3} {A0,A3,A4} {A0,A4,A5} (width 2)",
			[][]int{{159497, 400000, 400000, 159497}}},
		{"triangle", 3, 400, 2000, "triangle", "", [][]int{{108}}},
		{"c4", 4, 400, 2000, "four-cycle", "", [][]int{{9854, 9854}, {0, 0}, {0, 0}}},
	}
	for _, c := range cases {
		g := workload.RandomGraph(c.vertices, c.edges, workload.UniformWeights(), 1)
		p, err := Compile(instanceQuery(workload.CycleQueryOn(g, c.l)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.TopK(1); err != nil {
			t.Fatal(err)
		}
		st := p.PlanStats()
		if st.Kind != c.kind || st.Decomposition != c.decomposition {
			t.Errorf("%s: compiled to %s %q, want %s %q", c.name, st.Kind, st.Decomposition, c.kind, c.decomposition)
			continue
		}
		want := c.bags
		if want == nil {
			want = [][]int{{st.Solutions}}
		}
		got := st.Rankings[0]
		if !reflect.DeepEqual(got.BagSizes, want) {
			t.Errorf("%s: bag sizes %v, want %v", c.name, got.BagSizes, want)
		}
		if c.bags == nil && got.TotalMaterialized != st.Solutions {
			t.Errorf("%s: one bag materialised %d rows for %d answers", c.name, got.TotalMaterialized, st.Solutions)
		}
		if st.Decomposition != "" && len(st.EstBagSizes) != len(want[0]) {
			t.Errorf("%s: %d bag estimates for %d bags", c.name, len(st.EstBagSizes), len(want[0]))
		}
	}
}

// forcedFan drains the fan plan of q's cycle — CycleShape with no
// coster — under one ranking and variant, with each row copied.
func forcedFan(t testing.TB, q *Query, agg ranking.Aggregate, v Variant) []Result {
	t.Helper()
	order, walk, ok := q.matchCycleShape()
	if !ok {
		t.Fatal("not a cycle")
	}
	s, err := decomp.CycleShape(q.edges, order, walk, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Prepare(q.rels, agg)
	if err != nil {
		t.Fatal(err)
	}
	it, err := plan.Run(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []Result
	for r, ok := it.Next(); ok; r, ok = it.Next() {
		out = append(out, Result{Tuple: slices.Clone(r.Tuple), Weight: r.Weight})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRanking reports how two ranked drains differ: in their weight
// sequences, or in the multiset of tuples carrying some weight (plans
// may order a block of equal weights differently); "" if they do not.
func sameRanking(got, want []Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for lo := 0; lo < len(want); {
		hi := lo
		for hi < len(want) && want[hi].Weight == want[lo].Weight {
			if got[hi].Weight != want[hi].Weight {
				return fmt.Sprintf("weight %d is %v, want %v", hi, got[hi].Weight, want[hi].Weight)
			}
			hi++
		}
		if g, w := tupleKeys(got[lo:hi]), tupleKeys(want[lo:hi]); !slices.Equal(g, w) {
			return fmt.Sprintf("answers of weight %v: %v, want %v", want[lo].Weight, g, w)
		}
		lo = hi
	}
	return ""
}

// tiedCycle is a small ℓ-cycle over its own relation per atom (atom i
// declared backwards when flip has bit i), each with duplicate rows and
// weights in {1, 2, 3}, so every ranking ties and every answer repeats.
func tiedCycle(l, vertices, rows int, flip uint, seed uint64) *Query {
	rng := workload.NewRand(seed)
	q := NewQuery()
	for i := 0; i < l; i++ {
		vars := []string{fmt.Sprintf("V%d", i), fmt.Sprintf("V%d", (i+1)%l)}
		if flip>>i&1 == 1 {
			vars[0], vars[1] = vars[1], vars[0]
		}
		var ts []Tuple
		var ws []float64
		for j := 0; j < rows; j++ {
			t := Tuple{Value(rng.Intn(vertices)), Value(rng.Intn(vertices))}
			w := float64(1 + rng.Intn(3))
			ts, ws = append(ts, t), append(ws, w)
			if j%4 == 0 {
				ts, ws = append(ts, t), append(ws, w)
			}
		}
		q.Rel(fmt.Sprintf("R%d", i), vars, ts, ws)
	}
	return q
}

// isOneBag reports whether a cycle handle compiled to the single bag.
func isOneBag(p *Prepared) bool {
	st := p.PlanStats()
	return st.Kind == "cycle" && strings.Count(st.Decomposition, "{") == 1
}

// TestCycleChoiceSameAnswers: on 5-, 6- and 7-cycles where the cost
// model picks one bag, the facade's drain equals the fan's under every
// ranking and variant — weight for weight, and answer for answer within
// each weight — and so does Count.
func TestCycleChoiceSameAnswers(t *testing.T) {
	// Sparse enough that one bag is the cheaper plan: about two rows
	// per vertex, 1.5 on the 7-cycle.
	for _, c := range []struct{ l, vertices, rows int }{{5, 12, 24}, {6, 12, 24}, {7, 12, 18}} {
		for seed := uint64(1); seed <= 2; seed++ {
			q := tiedCycle(c.l, c.vertices, c.rows, uint(seed*0x55), seed)
			name := fmt.Sprintf("c%d seed %d", c.l, seed)
			p, err := Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			if !isOneBag(p) {
				t.Fatalf("%s: compiled to %q, want one bag", name, p.PlanStats().Decomposition)
			}
			n, err := p.Count()
			if err != nil {
				t.Fatal(err)
			}
			for _, agg := range ranking.All {
				for _, v := range allVariants {
					want := forcedFan(t, q, agg, v)
					got, err := p.TopK(0, WithRanking(agg), WithVariant(v))
					if err != nil {
						t.Fatal(err)
					}
					if d := sameRanking(got, want); d != "" {
						t.Fatalf("%s %s %s: one bag vs fan: %s", name, agg.Name(), v, d)
					}
					if n != len(want) {
						t.Fatalf("%s: Count %d, the fan drains %d", name, n, len(want))
					}
				}
			}
		}
	}
}

// TestCycleChoiceDeltaParity: ApplyDelta on a one-bag cycle leaves the
// handle bit-identical to a fresh Compile over the post-delta rows (the
// delta parity harness, warm and lazy).
func TestCycleChoiceDeltaParity(t *testing.T) {
	for i, l := range []int{5, 6, 7} {
		inst := workload.Cycle(l, 20, 10, workload.UniformWeights(), uint64(40+i))
		p, err := Compile(instanceQuery(inst), withCostModel(catalog.NewCostModel(inst.H.Edges, inst.Rels, nil)))
		if err != nil {
			t.Fatal(err)
		}
		if !isOneBag(p) {
			t.Fatalf("c%d: compiled to %q, want one bag", l, p.PlanStats().Decomposition)
		}
		deltaParityCase(t, inst, int64(l), 4, true)
		deltaParityCase(t, inst, int64(l)+100, 4, false)
	}
}

// FuzzCycleChoice: whatever plan the cost model picks for a random
// 5-, 6- or 7-cycle, its drain is the fan's under the ranking and
// variant the input names. Run the smoke locally with
//
//	go test -fuzz FuzzCycleChoice -fuzztime 30s -run '^$' .
func FuzzCycleChoice(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		l, vertices := 5+next()%3, 2+next()%7
		agg, v := ranking.All[next()%len(ranking.All)], allVariants[next()%len(allVariants)]
		flip := uint(next())
		// Duplicates multiply: the answers, counted with multiplicity, are
		// at most the product of the relation sizes, kept under 2^14.
		q, bound := NewQuery(), 1
		for i := 0; i < l; i++ {
			vars := []string{fmt.Sprintf("V%d", i), fmt.Sprintf("V%d", (i+1)%l)}
			if flip>>i&1 == 1 {
				vars[0], vars[1] = vars[1], vars[0]
			}
			rows := next() % 12
			for rows > 1 && bound*rows > 1<<14 {
				rows--
			}
			bound *= max(rows, 1)
			var ts []Tuple
			var ws []float64
			for j := rows; j > 0; j-- {
				ts = append(ts, Tuple{Value(next() % vertices), Value(next() % vertices)})
				ws = append(ws, float64(1+next()%3))
			}
			q.Rel(fmt.Sprintf("R%d", i), vars, ts, ws)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.TopK(0, WithRanking(agg), WithVariant(v))
		if err != nil {
			t.Fatal(err)
		}
		want := forcedFan(t, q, agg, v)
		if d := sameRanking(got, want); d != "" {
			t.Fatalf("c%d %s %s, plan %q: %s", l, agg.Name(), v, p.PlanStats().Decomposition, d)
		}
		if n, err := p.Count(); err != nil || n != len(want) {
			t.Fatalf("Count = %d, %v; the fan drains %d", n, err, len(want))
		}
	})
}
