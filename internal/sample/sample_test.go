package sample

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// buildSampler assembles atoms, the AGM cover, and the sampler for a
// query given as (name, vars) edges over rels.
func buildSampler(t *testing.T, rels []*relation.Relation, vars [][]string) (*Sampler, []wcoj.Atom, []string) {
	t.Helper()
	edges := make([]hypergraph.Edge, len(rels))
	atoms := make([]wcoj.Atom, len(rels))
	sizes := make([]float64, len(rels))
	for i, r := range rels {
		edges[i] = hypergraph.Edge{Name: r.Name, Vars: vars[i]}
		atoms[i] = wcoj.Atom{Rel: r, Vars: vars[i]}
		sizes[i] = math.Max(1, float64(r.Len()))
	}
	h := hypergraph.New(edges...)
	lambda, _, err := h.AGMCover(sizes)
	if err != nil {
		t.Fatalf("AGMCover: %v", err)
	}
	order := wcoj.SuggestOrder(atoms)
	s, err := New(atoms, order, lambda)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, atoms, order
}

// answerSet materializes the full join and indexes tuple → weight.
func answerSet(t *testing.T, atoms []wcoj.Atom, order []string, agg ranking.Aggregate) map[string]float64 {
	t.Helper()
	out, _, err := wcoj.Materialize(atoms, order, agg)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	m := make(map[string]float64, out.Len())
	for i, tp := range out.Tuples {
		m[fmt.Sprint(tp)] = out.Weights[i]
	}
	if len(m) != out.Len() {
		t.Fatalf("fixture has duplicate answers: %d tuples, %d distinct", out.Len(), len(m))
	}
	return m
}

// completeDigraph returns a relation with all ordered pairs (i, j),
// i ≠ j, over 0..n-1, weighted w(i,j) = 10i + j.
func completeDigraph(name string, n int) *relation.Relation {
	r := relation.New(name, "X", "Y")
	for i := int64(0); i < int64(n); i++ {
		for j := int64(0); j < int64(n); j++ {
			if i != j {
				r.AddTuple(relation.Tuple{i, j}, float64(10*i+j))
			}
		}
	}
	return r
}

// chiSquared runs draws and returns the chi-squared statistic of the
// sampled answer frequencies against the uniform expectation, checking
// along the way that every sample is a real answer with the right
// witness weight.
func chiSquared(t *testing.T, s *Sampler, answers map[string]float64, draws int, seed uint64) float64 {
	t.Helper()
	got, err := s.Sample(context.Background(), draws, seed, ranking.SumCost)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if len(got) != draws {
		t.Fatalf("drew %d of %d samples", len(got), draws)
	}
	counts := make(map[string]int, len(answers))
	for _, a := range got {
		key := fmt.Sprint(a.Tuple)
		w, ok := answers[key]
		if !ok {
			t.Fatalf("sampled non-answer %v", a.Tuple)
		}
		if a.Weight != w {
			t.Fatalf("sample %v weight %g, want %g", a.Tuple, a.Weight, w)
		}
		counts[key]++
	}
	exp := float64(draws) / float64(len(answers))
	chi2 := 0.0
	for key := range answers {
		d := float64(counts[key]) - exp
		chi2 += d * d / exp
	}
	return chi2
}

// TestUniformityTriangle: the sampler over the triangle query on a
// complete digraph must be uniform over all 120 answers. With 12000
// draws the statistic is chi-squared with 119 degrees of freedom; its
// 99.9% quantile is ≈171, so a deterministic seeded run below 180 is
// both a correctness check and flake-free.
func TestUniformityTriangle(t *testing.T) {
	rels := []*relation.Relation{
		completeDigraph("R", 6), completeDigraph("S", 6), completeDigraph("T", 6),
	}
	vars := [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}
	s, atoms, order := buildSampler(t, rels, vars)
	answers := answerSet(t, atoms, order, ranking.SumCost)
	if len(answers) != 120 {
		t.Fatalf("fixture has %d answers, want 120", len(answers))
	}
	if chi2 := chiSquared(t, s, answers, 12000, 7); chi2 > 180 {
		t.Fatalf("chi-squared %.1f exceeds the 99.9%% bound 180", chi2)
	}
}

// TestUniformityAcyclicPath covers the acyclic shape: a two-hop path
// with asymmetric fan-outs, where a non-uniform walk (e.g. one
// proportional to candidate counts instead of the λ-weighted bounds)
// would visibly overweight the hub.
func TestUniformityAcyclicPath(t *testing.T) {
	r := relation.New("R", "X", "Y")
	sRel := relation.New("S", "X", "Y")
	// Hub value 0 has many continuations, values 1..4 few.
	for j := int64(0); j < 8; j++ {
		r.AddTuple(relation.Tuple{int64(100 + j), 0}, 1)
		sRel.AddTuple(relation.Tuple{0, int64(200 + j)}, 1)
	}
	for v := int64(1); v <= 4; v++ {
		r.AddTuple(relation.Tuple{100 - v, v}, 1)
		sRel.AddTuple(relation.Tuple{v, 200 - v}, 1)
	}
	vars := [][]string{{"A", "B"}, {"B", "C"}}
	s, atoms, order := buildSampler(t, []*relation.Relation{r, sRel}, vars)
	answers := answerSet(t, atoms, order, ranking.SumCost)
	if len(answers) != 68 {
		t.Fatalf("fixture has %d answers, want 68", len(answers))
	}
	// df = 67, 99.9% quantile ≈ 111.
	if chi2 := chiSquared(t, s, answers, 6800, 11); chi2 > 115 {
		t.Fatalf("chi-squared %.1f exceeds the 99.9%% bound 115", chi2)
	}
}

// TestEstimatorConfidenceSkewed checks the cardinality estimator on a
// Zipf-like skewed join: the estimate must land within six binomial
// standard deviations of the true count (the run is seeded, so this is
// deterministic; six sigma makes the bound honest rather than tuned).
func TestEstimatorConfidenceSkewed(t *testing.T) {
	r := relation.New("R", "X", "Y")
	sRel := relation.New("S", "X", "Y")
	// Value v appears ~60/v times on the join column: heavy head at 1.
	row := int64(0)
	for v := int64(1); v <= 20; v++ {
		for c := int64(0); c < 60/v; c++ {
			r.AddTuple(relation.Tuple{row, v}, 1)
			sRel.AddTuple(relation.Tuple{v, 10000 + row}, 1)
			row++
		}
	}
	vars := [][]string{{"A", "B"}, {"B", "C"}}
	s, atoms, order := buildSampler(t, []*relation.Relation{r, sRel}, vars)
	truth := float64(len(answerSet(t, atoms, order, ranking.SumCost)))
	s.MaxTrials = 200000
	if _, err := s.Sample(context.Background(), 1<<30, 3, ranking.SumCost); err != nil && !errors.Is(err, ErrTrialBudget) {
		t.Fatalf("Sample: %v", err)
	}
	est, trials, accepts := s.Estimate()
	if trials == 0 || accepts == 0 {
		t.Fatalf("no accepted trials (trials=%d)", trials)
	}
	p := truth / s.Bound()
	sd := s.Bound() * math.Sqrt(p*(1-p)/float64(trials))
	if diff := math.Abs(est - truth); diff > 6*sd {
		t.Fatalf("estimate %.1f vs true %.0f: off by %.1f > 6σ = %.1f (trials=%d)", est, truth, diff, 6*sd, trials)
	}
}

func TestEmptyInputRelation(t *testing.T) {
	r := relation.New("R", "X", "Y")
	sRel := relation.New("S", "X", "Y")
	sRel.AddTuple(relation.Tuple{1, 2}, 1)
	s, _, _ := buildSampler(t, []*relation.Relation{r, sRel}, [][]string{{"A", "B"}, {"B", "C"}})
	if s.Bound() != 0 {
		t.Fatalf("Bound() = %g, want 0 for an empty input", s.Bound())
	}
	got, err := s.Sample(context.Background(), 5, 1, ranking.SumCost)
	if err != nil || len(got) != 0 {
		t.Fatalf("Sample on empty join: got %d answers, err %v", len(got), err)
	}
	if est, _, _ := s.Estimate(); est != 0 {
		t.Fatalf("Estimate() = %g, want 0", est)
	}
}

// TestBudgetOnEmptyIntersection: non-empty inputs with zero join
// answers keep rejecting until the budget runs out, reported as
// ErrTrialBudget with the estimate converging to 0.
func TestBudgetOnEmptyIntersection(t *testing.T) {
	r := relation.New("R", "X", "Y")
	sRel := relation.New("S", "X", "Y")
	for i := int64(0); i < 10; i++ {
		r.AddTuple(relation.Tuple{i, i + 100}, 1)
		sRel.AddTuple(relation.Tuple{i + 200, i}, 1)
	}
	s, _, _ := buildSampler(t, []*relation.Relation{r, sRel}, [][]string{{"A", "B"}, {"B", "C"}})
	s.MaxTrials = 100
	got, err := s.Sample(context.Background(), 3, 1, ranking.SumCost)
	if !errors.Is(err, ErrTrialBudget) {
		t.Fatalf("err = %v, want ErrTrialBudget", err)
	}
	if len(got) != 0 {
		t.Fatalf("sampled %d answers from an empty join", len(got))
	}
	if est, trials, _ := s.Estimate(); est != 0 || trials != 100 {
		t.Fatalf("Estimate() = %g after %d trials, want 0 after 100", est, trials)
	}
}

func TestContextCancellation(t *testing.T) {
	r := completeDigraph("R", 6)
	s, _, _ := buildSampler(t, []*relation.Relation{r}, [][]string{{"A", "B"}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Sample(ctx, 10, 1, ranking.SumCost); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNewValidation(t *testing.T) {
	r := completeDigraph("R", 3)
	atoms := []wcoj.Atom{{Rel: r, Vars: []string{"A", "B"}}}
	if _, err := New(atoms, []string{"A", "B"}, []float64{1, 1}); err == nil {
		t.Fatal("lambda length mismatch not rejected")
	}
	if _, err := New(atoms, []string{"A", "B"}, []float64{-1}); err == nil {
		t.Fatal("negative lambda not rejected")
	}
	if _, err := New(atoms, []string{"A", "B"}, []float64{0.5}); err == nil {
		t.Fatal("under-covering lambda not rejected")
	}
	if _, err := New(atoms, []string{"A", "B", "C"}, []float64{1}); err == nil {
		t.Fatal("uncovered variable not rejected")
	}
	// LP round-off just below 1 is repaired, not rejected.
	s, err := New(atoms, []string{"A", "B"}, []float64{1 - 1e-9})
	if err != nil {
		t.Fatalf("round-off lambda rejected: %v", err)
	}
	if s.Bound() < float64(r.Len()) {
		t.Fatalf("Bound() = %g below relation size %d", s.Bound(), r.Len())
	}
}

// TestSeedDeterminism: equal seeds reproduce equal draws; different
// seeds draw differently.
func TestSeedDeterminism(t *testing.T) {
	rels := []*relation.Relation{
		completeDigraph("R", 6), completeDigraph("S", 6), completeDigraph("T", 6),
	}
	vars := [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}
	s, _, _ := buildSampler(t, rels, vars)
	a, err := s.Sample(context.Background(), 40, 99, ranking.SumCost)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Sample(context.Background(), 40, 99, ranking.SumCost)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("equal seeds drew different samples")
	}
	c, err := s.Sample(context.Background(), 40, 100, ranking.SumCost)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds drew identical samples")
	}
}
