package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// sampleEdges builds a duplicate-free edge list with one hub vertex, so
// triangle joins over it have a few hundred answers and a clear heavy
// hitter.
func sampleEdges(n int) ([]Tuple, []float64) {
	var tuples []Tuple
	var weights []float64
	add := func(a, b int64) {
		tuples = append(tuples, Tuple{a, b})
		weights = append(weights, float64(a)+float64(b)/1000)
	}
	for j := int64(1); j < int64(n); j++ {
		add(0, j)
		add(j, 0)
		add(j, j%int64(n-1)+1)
	}
	return tuples, weights
}

// completeDigraph returns every ordered pair (i, j), i ≠ j, over
// 0..n-1, weighted 10i + j: duplicate-free, so each join answer is one
// result.
func completeDigraph(n int) ([]Tuple, []float64) {
	var tuples []Tuple
	var weights []float64
	for i := int64(0); i < int64(n); i++ {
		for j := int64(0); j < int64(n); j++ {
			if i != j {
				tuples = append(tuples, Tuple{i, j})
				weights = append(weights, float64(10*i+j))
			}
		}
	}
	return tuples, weights
}

// edgeQuery binds every atom to the same edge list.
func edgeQuery(tuples []Tuple, weights []float64, atoms ...[]string) *Query {
	q := NewQuery()
	for i, vars := range atoms {
		q.Rel(fmt.Sprintf("R%d", i+1), vars, tuples, weights)
	}
	return q
}

// answerKey renders a result tuple as a map key.
func answerKey(t Tuple) string {
	key := ""
	for _, v := range t {
		key += fmt.Sprintf("%d,", v)
	}
	return key
}

// answerWeights indexes TopK(0)'s results by tuple; the fixture must be
// duplicate-free.
func answerWeights(t *testing.T, p *Prepared, opts ...RunOption) map[string]float64 {
	t.Helper()
	answers, err := p.TopK(0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64, len(answers))
	for _, r := range answers {
		key := answerKey(r.Tuple)
		if _, dup := want[key]; dup {
			t.Fatalf("fixture produced duplicate answer %s; the check needs one result per tuple", key)
		}
		want[key] = r.Weight
	}
	return want
}

// assertSamplesInAnswers checks that every drawn sample is a TopK(0)
// result with that result's weight (1e-9: a draw and the enumeration
// may fold the weights in different orders).
func assertSamplesInAnswers(t *testing.T, samples []Result, want map[string]float64) {
	t.Helper()
	for _, s := range samples {
		w, ok := want[answerKey(s.Tuple)]
		if !ok {
			t.Fatalf("sampled tuple %v is not a join answer", s.Tuple)
		}
		if math.Abs(s.Weight-w) > 1e-9 {
			t.Fatalf("sampled tuple %v weight %v, enumeration says %v", s.Tuple, s.Weight, w)
		}
	}
}

// assertUniform draws 20 samples per answer and checks, by a seeded
// chi-squared test, that the draws are uniform over TopK(0)'s results
// and each is one of them with its weight. The bound df + 3.1·√(2·df) +
// 10 sits past the 99.9 % quantile for every df used here.
func assertUniform(t *testing.T, p *Prepared, seed uint64) {
	t.Helper()
	want := answerWeights(t, p)
	draws := 20 * len(want)
	samples, err := p.Sample(draws, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != draws {
		t.Fatalf("drew %d of %d samples", len(samples), draws)
	}
	assertSamplesInAnswers(t, samples, want)
	counts := make(map[string]int, len(want))
	for _, s := range samples {
		counts[answerKey(s.Tuple)]++
	}
	exp := float64(draws) / float64(len(want))
	chi2 := 0.0
	for key := range want {
		d := float64(counts[key]) - exp
		chi2 += d * d / exp
	}
	df := float64(len(want) - 1)
	if bound := df + 3.1*math.Sqrt(2*df) + 10; chi2 > bound {
		t.Fatalf("chi-squared %.1f over %d answers exceeds %.1f", chi2, len(want), bound)
	}
}

// compileKind compiles q and checks the shape it compiled to.
func compileKind(t *testing.T, q *Query, kind string) *Prepared {
	t.Helper()
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PlanStats().Kind; got != kind {
		t.Fatalf("compiled to %s, want %s", got, kind)
	}
	return p
}

// TestSampleUniformAtomTree covers an atom tree: a two-hop path with
// asymmetric fan-outs, where a walk that ignored the counts below each
// row would visibly overweight the hub's few continuations.
func TestSampleUniformAtomTree(t *testing.T) {
	var r, s []Tuple
	// Hub value 0 has many continuations, values 1..4 one each.
	for j := int64(0); j < 8; j++ {
		r = append(r, Tuple{100 + j, 0})
		s = append(s, Tuple{0, 200 + j})
	}
	for v := int64(1); v <= 4; v++ {
		r = append(r, Tuple{100 - v, v})
		s = append(s, Tuple{v, 200 - v})
	}
	weights := func(ts []Tuple) []float64 {
		w := make([]float64, len(ts))
		for i, t := range ts {
			w[i] = float64(t[0]) + float64(t[1])/1000
		}
		return w
	}
	q := NewQuery().
		Rel("R", []string{"A", "B"}, r, weights(r)).
		Rel("S", []string{"B", "C"}, s, weights(s))
	p := compileKind(t, q, "acyclic")
	if n, err := p.Count(); err != nil || n != 68 {
		t.Fatalf("fixture has %d answers (%v), want 68", n, err)
	}
	assertUniform(t, p, 11)
}

// TestSampleUniformOneBag covers a one-bag plan: the triangle over a
// complete digraph on six vertices, 120 answers.
func TestSampleUniformOneBag(t *testing.T) {
	tuples, weights := completeDigraph(6)
	p := compileKind(t, edgeQuery(tuples, weights, []string{"A", "B"}, []string{"B", "C"}, []string{"C", "A"}), "triangle")
	assertUniform(t, p, 7)
}

// TestSampleUniformFourCycle covers a union of trees: the 4-cycle's
// heavy/light plan over a hub graph, where more than one tree holds
// answers, so the draw must pick trees by their counts.
func TestSampleUniformFourCycle(t *testing.T) {
	tuples, weights := completeDigraph(4)
	for j := int64(4); j < 24; j++ {
		tuples = append(tuples, Tuple{0, j}, Tuple{j, 1})
		weights = append(weights, float64(j), float64(2*j))
	}
	p := compileKind(t, edgeQuery(tuples, weights,
		[]string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"}, []string{"D", "A"}), "four-cycle")
	assertUniform(t, p, 3)
	trees := 0
	for _, bags := range p.PlanStats().Rankings[0].BagSizes {
		if bags[0] > 0 && bags[1] > 0 {
			trees++
		}
	}
	if trees < 2 {
		t.Fatalf("bags %v: want answers in more than one tree", p.PlanStats().Rankings[0].BagSizes)
	}
}

// TestSampleUniformBowtie covers a multi-bag GHD: the bowtie over a
// complete digraph on four vertices, 144 answers.
func TestSampleUniformBowtie(t *testing.T) {
	tuples, weights := completeDigraph(4)
	p := compileKind(t, edgeQuery(tuples, weights,
		[]string{"A", "B"}, []string{"B", "C"}, []string{"C", "A"},
		[]string{"A", "D"}, []string{"D", "E"}, []string{"E", "A"}), "ghd")
	assertUniform(t, p, 5)
	if bags := p.PlanStats().Rankings[0].BagSizes; len(bags) != 1 || len(bags[0]) < 2 {
		t.Fatalf("bags %v: want one tree of several bags", bags)
	}
}

// TestSampleTriangle: draws are join answers with their weights, and
// the handle's sample counters both count the draws — none is rejected.
func TestSampleTriangle(t *testing.T) {
	tuples, weights := sampleEdges(24)
	p, err := Compile(edgeQuery(tuples, weights, []string{"A", "B"}, []string{"B", "C"}, []string{"C", "A"}))
	if err != nil {
		t.Fatal(err)
	}
	want := answerWeights(t, p)
	if len(want) == 0 {
		t.Fatal("fixture has no triangle answers")
	}
	samples, err := p.Sample(64, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 64 {
		t.Fatalf("drew %d samples, want 64", len(samples))
	}
	assertSamplesInAnswers(t, samples, want)
	if _, err := p.Sample(16); err != nil {
		t.Fatal(err)
	}
	if st := p.PlanStats(); st.SampleTrials != 80 || st.SampleAccepts != 80 {
		t.Fatalf("PlanStats counters trials=%d accepts=%d, want 80 draws each", st.SampleTrials, st.SampleAccepts)
	}
}

// TestSampleAcyclic: draws under another ranking carry that ranking's
// weights, and samples own their tuples.
func TestSampleAcyclic(t *testing.T) {
	tuples, weights := sampleEdges(16)
	p, err := Compile(edgeQuery(tuples, weights, []string{"A", "B"}, []string{"B", "C"}))
	if err != nil {
		t.Fatal(err)
	}
	want := answerWeights(t, p, WithRanking(MaxCost))
	samples, err := p.Sample(50, WithSeed(11), WithRanking(MaxCost))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 50 {
		t.Fatalf("drew %d samples, want 50", len(samples))
	}
	assertSamplesInAnswers(t, samples, want)
	samples[0].Tuple[0] = -1
	if _, ok := want[answerKey(samples[1].Tuple)]; !ok {
		t.Fatal("writing one sample's tuple changed another's")
	}
}

// TestSampleSeedDeterminism: equal seeds reproduce equal draws;
// different seeds draw differently.
func TestSampleSeedDeterminism(t *testing.T) {
	tuples, weights := sampleEdges(20)
	p, err := Compile(edgeQuery(tuples, weights, []string{"A", "B"}, []string{"B", "C"}, []string{"C", "A"}))
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) string {
		s, err := p.Sample(32, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(s)
	}
	if a, b := draw(99), draw(99); a != b {
		t.Fatal("equal seeds drew different samples")
	}
	if draw(99) == draw(100) {
		t.Fatal("different seeds drew identical samples")
	}
}

// TestSampleDisjoint: a join with no answers says so with
// ErrTrialBudget and zero samples.
func TestSampleDisjoint(t *testing.T) {
	w := []float64{1, 2}
	q := NewQuery().
		Rel("L", []string{"A", "B"}, []Tuple{{1, 2}, {3, 4}}, w).
		Rel("R", []string{"B", "C"}, []Tuple{{5, 6}, {7, 8}}, w)
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := p.Sample(5, WithSeed(1))
	if !errors.Is(err, ErrTrialBudget) {
		t.Fatalf("err = %v, want ErrTrialBudget", err)
	}
	if len(samples) != 0 {
		t.Fatalf("drew %d samples from an empty join", len(samples))
	}
	if st := p.PlanStats(); st.SampleTrials != 0 || st.SampleAccepts != 0 {
		t.Fatalf("stats after empty join: %+v", st)
	}
}

// TestSampleBudgetOnEmptyIntersection: non-empty inputs whose join
// values never meet, on a path and on a triangle, give ErrTrialBudget
// and zero samples.
func TestSampleBudgetOnEmptyIntersection(t *testing.T) {
	var r, s, u []Tuple
	var w []float64
	for i := int64(0); i < 10; i++ {
		r = append(r, Tuple{i, i + 100})
		s = append(s, Tuple{i + 200, i})
		u = append(u, Tuple{i + 100, i + 300})
		w = append(w, 1)
	}
	cases := map[string]*Query{
		"path": NewQuery().
			Rel("R", []string{"A", "B"}, r, w).
			Rel("S", []string{"B", "C"}, s, w),
		"triangle": NewQuery().
			Rel("R", []string{"A", "B"}, r, w).
			Rel("S", []string{"B", "C"}, u, w).
			Rel("T", []string{"C", "A"}, s, w),
	}
	for name, q := range cases {
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := p.Sample(3, WithSeed(1))
		if !errors.Is(err, ErrTrialBudget) {
			t.Fatalf("%s: err = %v, want ErrTrialBudget", name, err)
		}
		if len(samples) != 0 {
			t.Fatalf("%s: drew %d samples from an empty join", name, len(samples))
		}
		if st := p.PlanStats(); st.SampleAccepts != 0 {
			t.Fatalf("%s: stats after empty join: %+v", name, st)
		}
	}
}

// TestSampleSeedDeterminismTriangle: on the complete-digraph triangle,
// equal seeds draw equal samples, also on separately compiled handles,
// and different seeds draw differently.
func TestSampleSeedDeterminismTriangle(t *testing.T) {
	tuples, weights := completeDigraph(6)
	compile := func() *Prepared {
		p, err := Compile(edgeQuery(tuples, weights, []string{"A", "B"}, []string{"B", "C"}, []string{"C", "A"}))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	draw := func(p *Prepared, seed uint64) string {
		s, err := p.Sample(40, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(s)
	}
	p, q := compile(), compile()
	a := draw(p, 99)
	if a != draw(p, 99) || a != draw(q, 99) {
		t.Fatal("equal seeds drew different samples")
	}
	if a == draw(p, 100) {
		t.Fatal("different seeds drew identical samples")
	}
}

// TestSampleEmptyInput: an empty input relation on a cyclic handle is
// an empty join too.
func TestSampleEmptyInput(t *testing.T) {
	tuples, weights := completeDigraph(4)
	q := NewQuery().
		Rel("R", []string{"A", "B"}, tuples, weights).
		Rel("S", []string{"B", "C"}, tuples, weights).
		Rel("T", []string{"C", "A"}, nil, nil)
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if samples, err := p.Sample(3); !errors.Is(err, ErrTrialBudget) || len(samples) != 0 {
		t.Fatalf("Sample on an empty join: %d samples, err %v", len(samples), err)
	}
}

// TestSampleContextCanceled: a canceled WithContext returns ctx.Err(),
// whether or not the ranking's plan is built yet.
func TestSampleContextCanceled(t *testing.T) {
	tuples, weights := completeDigraph(6)
	p, err := Compile(edgeQuery(tuples, weights, []string{"A", "B"}, []string{"B", "C"}, []string{"C", "A"}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Sample(10, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold plan: err = %v, want context.Canceled", err)
	}
	if _, err := p.Sample(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sample(10, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("built plan: err = %v, want context.Canceled", err)
	}
}

// TestSampleConcurrent: Sample calls racing on a cold handle share one
// plan and one set of counts, and each draws what the same seed draws
// alone.
func TestSampleConcurrent(t *testing.T) {
	tuples, weights := completeDigraph(5)
	q := func() *Query {
		return edgeQuery(tuples, weights, []string{"A", "B"}, []string{"B", "C"}, []string{"C", "D"}, []string{"D", "A"})
	}
	ref, err := Compile(q())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range 4 {
		want, err := ref.Sample(50, WithSeed(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.Sample(50, WithSeed(uint64(i)))
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("seed %d: concurrent draws differ from the reference (%v)", i, err)
			}
		}()
	}
	wg.Wait()
	if st := p.PlanStats(); st.SampleTrials != 200 {
		t.Fatalf("SampleTrials = %d, want 200", st.SampleTrials)
	}
}
