package decomp

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// shapeFixture is one seeded input of TestCanonicalShapesPinned: the
// constructor under test over the l-cycle R1(a0,a1) ⋈ ... ⋈ Rl(a_{l-1},a0)
// on attrs, and the Stats the constructor reported before the canonical
// shapes became fixed decompositions over prepareGHD (literal values
// printed by that commit, except where a comment says otherwise).
type shapeFixture struct {
	name    string
	attrs   []string
	rels    []*relation.Relation
	prepare func(rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error)
	want    *Stats
}

func shapeFixtures() []shapeFixture {
	graphs := func(l, vertices, edges int, seed uint64) []*relation.Relation {
		rels := make([]*relation.Relation, l)
		for i := range rels {
			rels[i] = workload.RandomGraph(vertices, edges, workload.UniformWeights(), seed+uint64(i)).Edges
		}
		return rels
	}
	same := func(l int, r *relation.Relation) []*relation.Relation {
		rels := make([]*relation.Relation, l)
		for i := range rels {
			rels[i] = r
		}
		return rels
	}
	triangle := func(rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
		return PrepareTriangle([3]*relation.Relation(rels), agg, opts...)
	}
	submodular := func(rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
		return PrepareFourCycleSubmodular([4]*relation.Relation(rels), agg, opts...)
	}
	singleTree := func(rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
		return PrepareFourCycleSingleTree([4]*relation.Relation(rels), agg, opts...)
	}
	// The TestSubmodularMatchesReferenceSkewed generator: heavy values
	// exist, so all three trees of the submodular plan are non-empty.
	skewed := workload.SkewedGraph(30, 300, 1.4, workload.UniformWeights(), 3).Edges
	uneven := graphs(5, 8, 30, 70)
	uneven[4] = workload.RandomGraph(8, 12, workload.UniformWeights(), 75).Edges
	return []shapeFixture{
		{"triangle", TriangleAttrs, graphs(3, 12, 60, 40), triangle,
			&Stats{BagSizes: [][]int{{110}}, TotalMaterialized: 110}},
		{"c4-submodular-skewed", FourCycleAttrs, same(4, skewed), submodular,
			&Stats{BagSizes: [][]int{{917, 917}, {1993, 485}, {1674, 166}}, HeavyB: 4, HeavyD: 4, TotalMaterialized: 6152}},
		{"c4-single-tree-skewed", FourCycleAttrs, same(4, skewed), singleTree,
			&Stats{BagSizes: [][]int{{3026, 3026}}, TotalMaterialized: 6052}},
		// The fan for l = 3 is the triangle's bag (it used to be a two-bag
		// tree R1⋈R2, R3 reporting [[280 60]]).
		{"c3-fan", CycleAttrs(3), graphs(3, 12, 60, 40), PrepareCycleSingleTree,
			&Stats{BagSizes: [][]int{{110}}, TotalMaterialized: 110}},
		{"c5", CycleAttrs(5), graphs(5, 8, 30, 50), PrepareCycleSingleTree,
			&Stats{BagSizes: [][]int{{103, 240, 123}}, TotalMaterialized: 466}},
		{"c6", CycleAttrs(6), same(6, workload.RandomGraph(8, 28, workload.UniformWeights(), 60).Edges), PrepareCycleSingleTree,
			&Stats{BagSizes: [][]int{{106, 224, 224, 106}}, TotalMaterialized: 660}},
		// A10 sorts before A2: catches sorted-vs-walk attribute order.
		{"c11", CycleAttrs(11), graphs(11, 5, 11, 80), PrepareCycleSingleTree,
			&Stats{BagSizes: [][]int{{29, 44, 44, 44, 44, 44, 44, 44, 29}}, TotalMaterialized: 366}},
		// |R5| < |R1|: the middle bag takes π_{A0} from the smaller R5. The
		// hand-rolled fan always read R1 and reported [[116 240 60]]; this
		// is the one input class whose bag contents moved.
		{"c5-uneven", CycleAttrs(5), uneven, PrepareCycleSingleTree,
			&Stats{BagSizes: [][]int{{116, 210, 60}}, TotalMaterialized: 386}},
	}
}

// cycleOutput is the brute-force reference: the cycle's full output by
// one Generic-Join over the base relations, sorted under agg.
func cycleOutput(t *testing.T, f shapeFixture, agg ranking.Aggregate) *relation.Relation {
	t.Helper()
	l := len(f.attrs)
	atoms := make([]wcoj.Atom, l)
	for i, r := range f.rels {
		atoms[i] = wcoj.Atom{Rel: r, Vars: []string{f.attrs[i], f.attrs[(i+1)%l]}}
	}
	rows, _, err := wcoj.Materialize(atoms, f.attrs, agg)
	if err != nil {
		t.Fatal(err)
	}
	out := rows.Relation("GJ", f.attrs)
	sort.SliceStable(out.Weights, func(i, j int) bool { return agg.Less(out.Weights[i], out.Weights[j]) })
	return out
}

// TestCanonicalShapesPinned is the equivalence claim of the fixed
// decompositions: every canonical constructor reports the Stats it
// reported when it materialised its bags by hand (hash joins, a cross
// product), enumerates exactly the brute-force output under every
// aggregate and variant, and prepares the same plan for any worker
// count.
func TestCanonicalShapesPinned(t *testing.T) {
	aggs := []ranking.Aggregate{ranking.SumCost, ranking.SumBenefit, ranking.MaxCost, ranking.MinBenefit, ranking.ProductCost}
	for _, f := range shapeFixtures() {
		t.Run(f.name, func(t *testing.T) {
			seq, err := f.prepare(f.rels, sum)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.Stats, f.want) {
				t.Errorf("Stats = %+v, want %+v", *seq.Stats, *f.want)
			}
			for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
				par, err := f.prepare(f.rels, sum, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				assertSamePlan(t, fmt.Sprintf("workers=%d", workers), seq, par)
			}
			for _, agg := range aggs {
				want := cycleOutput(t, f, agg)
				p, err := f.prepare(f.rels, agg)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range core.Variants() {
					got := core.Collect(runPlan(t, p, v), 0)
					if len(got) != want.Len() {
						t.Fatalf("%s/%s: %d results, brute force has %d", agg.Name(), v, len(got), want.Len())
					}
					// The weights in rank order, and the tuples as a multiset in
					// the canonical column order (want's Tuples are unsorted).
					gotRel := relation.New("got", f.attrs...)
					for i, r := range got {
						if math.Abs(r.Weight-want.Weights[i]) > 1e-9 {
							t.Fatalf("%s/%s: weight[%d] = %g, brute force %g", agg.Name(), v, i, r.Weight, want.Weights[i])
						}
						gotRel.AddTuple(r.Tuple, 0)
					}
					wantRel := relation.New("want", f.attrs...)
					for _, tp := range want.Tuples {
						wantRel.AddTuple(tp, 0)
					}
					if !gotRel.EqualAsSet(wantRel) {
						t.Fatalf("%s/%s: tuple multiset differs from brute force", agg.Name(), v)
					}
				}
			}
		})
	}
}
