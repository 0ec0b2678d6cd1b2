package yannakakis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

func one(_, _ int, _ float64) float64 { return 1 }

func starQueryForAgg(t *testing.T, seedData [][3][2]relation.Value) *Query {
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
	got := q.AnnotatedEval(CountingSemiring(), one)
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
	got := q.AnnotatedEval(MinTropicalSemiring(), nil)
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
	got := q.AnnotatedEval(CountingSemiring(), nil)
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
	if got := q.AnnotatedEval(CountingSemiring(), one); got != 0 {
		t.Fatalf("count of empty = %g", got)
	}
	if got := q.AnnotatedEval(MinTropicalSemiring(), nil); !math.IsInf(got, 1) {
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
		q, err := NewQuery(hypergraph.Path(2), []*relation.Relation{r1, r2})
		if err != nil {
			return false
		}
		return q.AnnotatedEval(CountingSemiring(), one) == float64(q.Evaluate(sum).Len())
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
		q, err := NewQuery(hypergraph.Path(2), []*relation.Relation{r1, r2})
		if err != nil {
			return false
		}
		out := q.Evaluate(sum)
		want := math.Inf(1)
		for _, w := range out.Weights {
			want = math.Min(want, w)
		}
		got := q.AnnotatedEval(MinTropicalSemiring(), nil)
		if math.IsInf(want, 1) {
			return math.IsInf(got, 1)
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
