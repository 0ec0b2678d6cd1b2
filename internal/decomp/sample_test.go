package decomp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dp"
	"repro/internal/relation"
	"repro/internal/workload"
)

// assertSampleUniform draws 20 samples per result of p and checks that
// each is a result Run drains, with one of that tuple's weights, and —
// by a seeded chi-squared test — that the draws are uniform over the
// results under bag semantics: a tuple Run yields m times is drawn m
// times as often as a tuple it yields once.
func assertSampleUniform(t *testing.T, p *Plan, seed uint64) {
	t.Helper()
	results := drainResults(t, p)
	mult := map[string]int{}
	weights := map[string][]float64{}
	for _, r := range results {
		key := fmt.Sprint(r.Tuple)
		mult[key]++
		weights[key] = append(weights[key], r.Weight)
	}
	draws := 20 * len(results)
	got, err := p.Sample(context.Background(), draws, rand.New(rand.NewPCG(seed, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != draws {
		t.Fatalf("drew %d of %d", len(got), draws)
	}
	seen := map[string]int{}
	for _, r := range got {
		key := fmt.Sprint(r.Tuple)
		ok := false
		for _, w := range weights[key] {
			ok = ok || math.Abs(w-r.Weight) <= 1e-9
		}
		if !ok {
			t.Fatalf("drew %v @ %v, not a result Run yields", r.Tuple, r.Weight)
		}
		seen[key]++
	}
	chi2 := 0.0
	for key, m := range mult {
		exp := float64(draws) * float64(m) / float64(len(results))
		d := float64(seen[key]) - exp
		chi2 += d * d / exp
	}
	df := float64(len(mult) - 1)
	if bound := df + 3.1*math.Sqrt(2*df) + 10; chi2 > bound {
		t.Fatalf("chi-squared %.1f over %d tuples exceeds %.1f", chi2, len(mult), bound)
	}
}

// TestPlanSampleUniform covers every plan shape: a one-bag tree, the
// 4-cycle's union of trees (all three non-empty on the skewed input),
// a single two-bag tree, the fans of c5 and c6, and an atom tree.
func TestPlanSampleUniform(t *testing.T) {
	for _, f := range shapeFixtures() {
		switch f.name {
		case "triangle", "c4-submodular-skewed", "c4-single-tree-skewed", "c5", "c6":
		default:
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			p, err := f.prepare(f.rels, sum)
			if err != nil {
				t.Fatal(err)
			}
			assertSampleUniform(t, p, 3)
		})
	}
	t.Run("path", func(t *testing.T) {
		edges, rels := graphAtoms(workload.RandomGraph(8, 30, workload.UniformWeights(), 5), [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}})
		s, ok := AcyclicShape(edges)
		if !ok {
			t.Fatal("path is cyclic")
		}
		p, err := s.Prepare(rels, sum)
		if err != nil {
			t.Fatal(err)
		}
		assertSampleUniform(t, p, 4)
	})
}

// TestPlanSampleEdges: an empty plan and n <= 0 draw nothing without
// error, a canceled context stops the draws, and a count that does not
// fit an int64 fails every call with dp.ErrCountOverflow.
func TestPlanSampleEdges(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 0))
	empty, err := PrepareTriangle([3]*relation.Relation{relation.New("R", "X", "Y"), relation.New("S", "X", "Y"), relation.New("T", "X", "Y")}, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := empty.Sample(context.Background(), 5, r); len(got) != 0 || err != nil {
		t.Fatalf("empty plan: %d draws, %v", len(got), err)
	}
	f := shapeFixtures()[0]
	p, err := f.prepare(f.rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.Sample(context.Background(), 0, r); len(got) != 0 || err != nil {
		t.Fatalf("n = 0: %d draws, %v", len(got), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Sample(ctx, 5, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: err = %v", err)
	}

	// Two trees of 2^62 results each: every count fits, their sum does
	// not.
	big := &Plan{trees: []*treePlan{bigTree(t), bigTree(t)}, width: 32}
	for range 2 {
		if _, err := big.Sample(context.Background(), 1, r); !errors.Is(err, dp.ErrCountOverflow) {
			t.Fatalf("err = %v, want dp.ErrCountOverflow", err)
		}
	}
}

// bigTree is the T-DP of a star of 31 atoms with 4 rows each on one
// centre value: 4^31 = 2^62 solutions.
func bigTree(t *testing.T) *treePlan {
	t.Helper()
	pairs := make([][2]string, 31)
	for i := range pairs {
		pairs[i] = [2]string{"X", fmt.Sprintf("Y%d", i)}
	}
	r := relation.New("E", "X", "Y")
	for j := range 4 {
		r.AddWeighted(1, 0, relation.Value(j))
	}
	edges, rels := graphAtoms(&workload.Graph{Edges: r}, pairs)
	s, ok := AcyclicShape(edges)
	if !ok {
		t.Fatal("star is cyclic")
	}
	p, err := s.Prepare(rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.trees[0].numSolutions(); err != nil || n != 1<<62 {
		t.Fatalf("star counts %d, %v; want 2^62", n, err)
	}
	return p.trees[0]
}
