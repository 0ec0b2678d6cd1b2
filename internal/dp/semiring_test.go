package dp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/yannakakis"
)

func one(_, _ int, _ float64) float64 { return 1 }

// mustEval is NewPlan(q).Eval(s, annotate).
func mustEval(t *testing.T, q *yannakakis.Query, s *Semiring, annotate func(pos, row int, w float64) float64) float64 {
	t.Helper()
	p, err := NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	return p.Eval(s, annotate)
}

// quickEval is Eval over the 2-path R1(X,Y) ⋈ R2(X,Y) for the
// property tests; ok is false when the plan does not build.
func quickEval(r1, r2 *relation.Relation, s *Semiring, annotate func(pos, row int, w float64) float64) (v float64, q *yannakakis.Query, ok bool) {
	q, err := yannakakis.NewQuery(hypergraph.Path(2), []*relation.Relation{r1, r2})
	if err != nil {
		return 0, nil, false
	}
	p, err := NewPlan(q)
	if err != nil {
		return 0, nil, false
	}
	return p.Eval(s, annotate), q, true
}

func starQueryForAgg(t *testing.T, seedData [][3][2]relation.Value) *yannakakis.Query {
	t.Helper()
	h := hypergraph.Star(2)
	r1 := relation.New("R1", "X", "Y")
	r2 := relation.New("R2", "X", "Y")
	for _, d := range seedData {
		r1.AddWeighted(float64(d[0][0]+d[0][1]), d[0][0], d[0][1])
		r2.AddWeighted(float64(d[1][0]+d[1][1]), d[1][0], d[1][1])
	}
	return mustQuery(t, h, []*relation.Relation{r1, r2})
}

func TestCountingSemiringMatchesCount(t *testing.T) {
	q := starQueryForAgg(t, [][3][2]relation.Value{
		{{1, 10}, {1, 20}}, {{1, 11}, {2, 21}}, {{2, 12}, {1, 22}},
	})
	got := mustEval(t, q, CountingSemiring(), one)
	want := float64(q.Evaluate(sum).Len())
	if got != want {
		t.Fatalf("semiring count = %g, Evaluate size = %g", got, want)
	}
}

func TestMinTropicalMatchesBestResult(t *testing.T) {
	h := hypergraph.Path(2)
	r1 := relation.New("R1", "X", "Y")
	r1.AddWeighted(1, 1, 10)
	r1.AddWeighted(5, 1, 11)
	r2 := relation.New("R2", "X", "Y")
	r2.AddWeighted(10, 10, 100)
	r2.AddWeighted(1, 10, 101)
	r2.AddWeighted(0, 11, 100)
	q := mustQuery(t, h, []*relation.Relation{r1, r2})
	got := mustEval(t, q, MinTropicalSemiring(), nil)
	// Best: (1,10) w=1 + (10,101) w=1 = 2.
	if got != 2 {
		t.Fatalf("min-sum = %g, want 2", got)
	}
}

func TestSumProductSemiring(t *testing.T) {
	h := hypergraph.Path(2)
	r1 := relation.New("R1", "X", "Y")
	r1.AddWeighted(2, 1, 10)
	r2 := relation.New("R2", "X", "Y")
	r2.AddWeighted(3, 10, 100)
	r2.AddWeighted(5, 10, 101)
	q := mustQuery(t, h, []*relation.Relation{r1, r2})
	// A nil annotate puts each tuple's weight under (+,×):
	// (2·3) + (2·5) = 16.
	got := mustEval(t, q, CountingSemiring(), nil)
	if got != 16 {
		t.Fatalf("sum-product = %g, want 16", got)
	}
}

func TestAnnotatedEvalEmptyQuery(t *testing.T) {
	h := hypergraph.Path(2)
	r1 := relation.New("R1", "X", "Y")
	r1.Add(1, 2)
	r2 := relation.New("R2", "X", "Y")
	r2.Add(3, 4)
	q := mustQuery(t, h, []*relation.Relation{r1, r2})
	if got := mustEval(t, q, CountingSemiring(), one); got != 0 {
		t.Fatalf("count of empty = %g", got)
	}
	if got := mustEval(t, q, MinTropicalSemiring(), nil); !math.IsInf(got, 1) {
		t.Fatalf("min-sum of empty = %g, want +Inf", got)
	}
}

// Property: semiring count equals materialised count on random paths.
func TestSemiringCountProperty(t *testing.T) {
	f := func(d1, d2 []uint8) bool {
		r1 := relation.New("R1", "X", "Y")
		for i, v := range d1 {
			r1.AddWeighted(float64(i), relation.Value(v%4), relation.Value(v%5))
		}
		r2 := relation.New("R2", "X", "Y")
		for i, v := range d2 {
			r2.AddWeighted(float64(i), relation.Value(v%5), relation.Value(v%3))
		}
		got, q, ok := quickEval(r1, r2, CountingSemiring(), one)
		return ok && got == float64(q.Evaluate(sum).Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: min-tropical equals the minimum weight of the materialised
// result set.
func TestMinTropicalProperty(t *testing.T) {
	f := func(d1, d2 []uint8) bool {
		r1 := relation.New("R1", "X", "Y")
		for i, v := range d1 {
			r1.AddWeighted(float64(i%7), relation.Value(v%4), relation.Value(v%5))
		}
		r2 := relation.New("R2", "X", "Y")
		for i, v := range d2 {
			r2.AddWeighted(float64(i%5), relation.Value(v%5), relation.Value(v%3))
		}
		got, q, ok := quickEval(r1, r2, MinTropicalSemiring(), nil)
		if !ok {
			return false
		}
		want := math.Inf(1)
		for _, w := range q.Evaluate(sum).Weights {
			want = math.Min(want, w)
		}
		if math.IsInf(want, 1) {
			return math.IsInf(got, 1)
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
