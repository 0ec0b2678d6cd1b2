package dp

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// solutions enumerates every solution of t as its preorder row vector,
// by brute force over the groups each parent row selects.
func solutions(t *TDP) []string {
	var out []string
	rows := make([]int32, len(t.Nodes))
	var walk func(pos int)
	walk = func(pos int) {
		if pos == len(t.Nodes) {
			out = append(out, fmt.Sprint(rows))
			return
		}
		if t.Nodes[pos].Rel.Len() == 0 {
			return
		}
		for _, r := range t.Nodes[pos].Groups.Rows(t.GroupFor(pos, rows)) {
			rows[pos] = r
			walk(pos + 1)
		}
	}
	walk(0)
	return out
}

// TestCountMatchesEnumeration: the counting pass's total is the number
// of solutions a brute-force walk finds, on trees of every shape.
func TestCountMatchesEnumeration(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		inst := workload.RandomTree(1+int(seed)%6, 12, 4, workload.UniformWeights(), seed)
		tdp := mustBuild(t, inst.H, inst.Rels, sum)
		n, err := tdp.NumSolutions()
		if err != nil {
			t.Fatal(err)
		}
		if want := len(solutions(tdp)); n != want {
			t.Fatalf("seed %d: NumSolutions %d, enumeration %d", seed, n, want)
		}
	}
}

// TestDrawUniform: Draw over the counts is uniform over the solutions,
// by a seeded chi-squared test, on a tree whose fan-outs differ between
// siblings (so a walk that ignored the counts would be visibly skewed).
func TestDrawUniform(t *testing.T) {
	inst := workload.RandomTree(5, 10, 3, workload.UniformWeights(), 4)
	tdp := mustBuild(t, inst.H, inst.Rels, sum)
	all := solutions(tdp)
	if _, err := tdp.NumSolutions(); err != nil {
		t.Fatal(err)
	}
	if len(all) < 50 {
		t.Fatalf("fixture has %d solutions, want a few dozen at least", len(all))
	}
	seen := make(map[string]int, len(all))
	for _, s := range all {
		seen[s] = 0
	}
	draws := 20 * len(all)
	r := rand.New(rand.NewPCG(5, 0))
	rows := make([]int32, len(tdp.Nodes))
	for range draws {
		tdp.Draw(r, rows)
		key := fmt.Sprint(rows)
		if _, ok := seen[key]; !ok {
			t.Fatalf("drew %v, not a solution", rows)
		}
		seen[key]++
	}
	exp := float64(draws) / float64(len(all))
	chi2 := 0.0
	for _, n := range seen {
		d := float64(n) - exp
		chi2 += d * d / exp
	}
	df := float64(len(all) - 1)
	if bound := df + 3.1*math.Sqrt(2*df) + 10; chi2 > bound {
		t.Fatalf("chi-squared %.1f over %d solutions exceeds %.1f", chi2, len(all), bound)
	}
}

// starQuery is the l-atom star R_i(A0, A_i) with rows rows per atom, all
// on the centre value 0: rows^l solutions.
func starQuery(t *testing.T, l, rows int) *yannakakis.Query {
	t.Helper()
	rels := make([]*relation.Relation, l)
	for i := range rels {
		rels[i] = relation.New(fmt.Sprintf("R%d", i+1), "X", "Y")
		for j := 0; j < rows; j++ {
			rels[i].AddWeighted(1, 0, relation.Value(j))
		}
	}
	q, err := yannakakis.NewQuery(hypergraph.Star(l), rels)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestCountOverflow: 300^8 does not fit an int64 and is refused, never
// wrapped; 300^7 does and is exact.
func TestCountOverflow(t *testing.T) {
	p, err := NewPlan(starQuery(t, 8, 300))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.NumSolutions(); !errors.Is(err, ErrCountOverflow) {
		t.Fatalf("8-atom star: NumSolutions = %d, %v; want ErrCountOverflow", n, err)
	}
	p, err = NewPlan(starQuery(t, 7, 300))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.NumSolutions(); err != nil || n != 218_700_000_000_000_000 {
		t.Fatalf("7-atom star: NumSolutions = %d, %v; want 300^7", n, err)
	}
	if _, ok := addChecked(math.MaxInt64, 1); ok {
		t.Fatal("MaxInt64+1 reported as fitting")
	}
	if _, ok := mulChecked(1<<32, 1<<31); ok {
		t.Fatal("2^63 reported as fitting")
	}
}

// TestCountsOncePerPlan: a plan's counts are built by their first
// reader, not by NewPlan, Instantiate or a NewPlanDelta whose
// predecessor holds none, and every instantiation reads the one
// artefact.
func TestCountsOncePerPlan(t *testing.T) {
	inst := workload.RandomTree(4, 12, 4, workload.UniformWeights(), 3)
	q := mustQuery(t, inst.H, inst.Rels)
	p, err := NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	next, st, err := NewPlanDelta(q, p, make([]bool, len(inst.Rels)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Recounted != 0 || next.counts.done.Load() {
		t.Fatalf("a delta from an uncounted plan recounted %d nodes", st.Recounted)
	}
	byMax, err := p.Instantiate(ranking.MaxCost)
	if err != nil {
		t.Fatal(err)
	}
	bySum, err := p.Instantiate(sum)
	if err != nil {
		t.Fatal(err)
	}
	if p.counts.done.Load() {
		t.Fatal("NewPlan or Instantiate built the counts")
	}
	if byMax.counts != p.counts || bySum.counts != p.counts {
		t.Fatal("an instantiation has counts of its own")
	}
	n, err := byMax.NumSolutions()
	if err != nil {
		t.Fatal(err)
	}
	cum := mustBuiltCounts(t, "after the first reader", p)
	for _, read := range []func() (int, error){bySum.NumSolutions, p.NumSolutions} {
		if m, err := read(); err != nil || m != n || &p.counts.cum[0] != &cum[0] {
			t.Fatalf("a later reader read %d, %v (want %d) or rebuilt the counts", m, err, n)
		}
	}
}
