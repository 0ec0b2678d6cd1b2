package factorized

import (
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

var sum = ranking.SumCost

func mustDRep(t *testing.T, inst *workload.Instance) (*DRep, *yannakakis.Query) {
	t.Helper()
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	return d, q
}

func TestCountMatchesYannakakis(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		inst := workload.Path(3, 60, 8, workload.UniformWeights(), seed)
		d, q := mustDRep(t, inst)
		if got, want := d.Count(), q.Evaluate(sum).Len(); got != want {
			t.Fatalf("seed %d: DRep.Count = %d, Yannakakis Evaluate size = %d", seed, got, want)
		}
	}
}

func TestEmptyResult(t *testing.T) {
	r1 := relation.New("R1", "X", "Y")
	r1.Add(1, 2)
	r2 := relation.New("R2", "X", "Y")
	r2.Add(3, 4)
	inst := &workload.Instance{H: hypergraph.Path(2), Rels: []*relation.Relation{r1, r2}}
	d, _ := mustDRep(t, inst)
	if d.Count() != 0 || d.Singletons() != 0 {
		t.Fatal("empty result should have empty representation")
	}
}

// A product of relations that share no variable is one union per
// relation: n·m answers from n + m singletons.
func TestCartesianProduct(t *testing.T) {
	r := relation.New("R", "X", "Y")
	s := relation.New("S", "X", "Y")
	for i := relation.Value(0); i < 4; i++ {
		r.Add(i, i+1)
		s.Add(i, 2*i)
		s.Add(i, 2*i+1)
	}
	inst := &workload.Instance{
		H:    hypergraph.New(hypergraph.E("R", "A", "B"), hypergraph.E("S", "C", "D")),
		Rels: []*relation.Relation{r, s},
	}
	d, q := mustDRep(t, inst)
	if got, want := d.Count(), q.Evaluate(sum).Len(); got != 32 || want != 32 {
		t.Fatalf("DRep.Count = %d, Yannakakis Evaluate size = %d, want 32", got, want)
	}
	if got := d.Singletons(); got != 12 {
		t.Fatalf("Singletons = %d, want 12", got)
	}
}

// The headline property of factorized databases: on the full cross
// product (every tuple joins every tuple through a single key), the
// flat result has n^l tuples while the d-representation stays at l·n
// singletons — an exponential gap.
func TestExponentialCompression(t *testing.T) {
	l, n := 4, 10
	h := hypergraph.Path(l)
	rels := make([]*relation.Relation, l)
	for i := range rels {
		r := relation.New("R", "X", "Y")
		for j := relation.Value(0); j < relation.Value(n); j++ {
			r.AddWeighted(float64(j), 0, 0) // every tuple is (0,0): full cross join
		}
		rels[i] = r
	}
	inst := &workload.Instance{H: h, Rels: rels}
	d, _ := mustDRep(t, inst)
	if got, want := d.Count(), pow(n, l); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if s := d.Singletons(); s != l*n {
		t.Fatalf("Singletons = %d, want %d", s, l*n)
	}
	if ratio := d.CompressionRatio(); ratio < 100 {
		t.Fatalf("compression ratio = %g, expected exponential gap", ratio)
	}
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// Sharing: distinct parent tuples with the same join key reference the
// same child union, so singletons never exceed total input tuples.
func TestSingletonsBoundedByInput(t *testing.T) {
	f := func(seed uint16) bool {
		inst := workload.Path(3, 40, 5, workload.UniformWeights(), uint64(seed))
		q, err := yannakakis.NewQuery(inst.H, inst.Rels)
		if err != nil {
			return false
		}
		d, err := Build(q)
		if err != nil {
			return false
		}
		totalInput := 0
		for _, r := range inst.Rels {
			totalInput += r.Len()
		}
		return d.Singletons() <= totalInput
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Count equals the size of the enumerated flat result
// (Yannakakis Evaluate) on random bushy instances.
func TestCountEnumerateAgreeProperty(t *testing.T) {
	f := func(seed uint16) bool {
		inst := workload.RandomTree(3, 25, 4, workload.UniformWeights(), uint64(seed))
		q, err := yannakakis.NewQuery(inst.H, inst.Rels)
		if err != nil {
			return false
		}
		d, err := Build(q)
		if err != nil {
			return false
		}
		return d.Count() == q.Evaluate(sum).Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRatioOnEmptyIsOne(t *testing.T) {
	r1 := relation.New("R1", "X", "Y")
	r1.Add(1, 2)
	r2 := relation.New("R2", "X", "Y")
	r2.Add(9, 9)
	inst := &workload.Instance{H: hypergraph.Path(2), Rels: []*relation.Relation{r1, r2}}
	d, _ := mustDRep(t, inst)
	if d.CompressionRatio() != 1 {
		t.Fatalf("ratio on empty = %g, want 1", d.CompressionRatio())
	}
}
