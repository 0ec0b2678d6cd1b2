package core

import (
	"context"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// Fuzz-style cross-validation on random tree-shaped queries: every
// variant must agree with Batch on arbitrary join-tree shapes, not just
// the path/star workloads of the experiments.

func runInstanceVariant(inst *workload.Instance, agg ranking.Aggregate, v Variant, k int) ([]Result, error) {
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		return nil, err
	}
	t, err := dp.Build(q, agg)
	if err != nil {
		return nil, err
	}
	it, err := New(context.Background(), t, v)
	if err != nil {
		return nil, err
	}
	return Collect(it, k), nil
}

func TestRandomTreeShapesAllVariants(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		nRels := int(seed%4) + 2 // 2..5 relations
		inst := workload.RandomTree(nRels, 35, 5, workload.UniformWeights(), seed*31+7)
		ref, err := runInstanceVariant(inst, sum, Batch, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range Variants() {
			if v == Batch {
				continue
			}
			got, err := runInstanceVariant(inst, sum, v, 0)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v, err)
			}
			if len(got) != len(ref) {
				t.Fatalf("seed %d %s: %d results, batch %d (query %s)", seed, v, len(got), len(ref), inst.H)
			}
			for i := range got {
				if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
					t.Fatalf("seed %d %s rank %d: %g vs %g (query %s)", seed, v, i, got[i].Weight, ref[i].Weight, inst.H)
				}
			}
		}
		// NaiveLawler too.
		q, _ := yannakakis.NewQuery(inst.H, inst.Rels)
		tdp, err := dp.Build(q, sum)
		if err != nil {
			t.Fatal(err)
		}
		got := Collect(NewNaiveLawler(context.Background(), tdp), 0)
		if len(got) != len(ref) {
			t.Fatalf("seed %d NaiveLawler: %d results, batch %d", seed, len(got), len(ref))
		}
		for i := range got {
			if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
				t.Fatalf("seed %d NaiveLawler rank %d: %g vs %g", seed, i, got[i].Weight, ref[i].Weight)
			}
		}
	}
}

// Property: on random tree queries, partial enumeration (top-k) agrees
// with the full enumeration prefix for every variant.
func TestRandomTreePrefixProperty(t *testing.T) {
	f := func(seed uint16, vIdx, kRaw uint8) bool {
		variants := Variants()
		v := variants[int(vIdx)%len(variants)]
		k := int(kRaw)%20 + 1
		inst := workload.RandomTree(3, 25, 4, workload.UniformWeights(), uint64(seed))
		full, err := runInstanceVariant(inst, sum, Batch, 0)
		if err != nil {
			return false
		}
		got, err := runInstanceVariant(inst, sum, v, k)
		if err != nil {
			return false
		}
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Weight-full[i].Weight) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Deep chains (path of 8 relations) stress the DFS-preorder machinery.
func TestDeepChainAllVariants(t *testing.T) {
	inst := workload.Path(8, 12, 6, workload.UniformWeights(), 3)
	ref, err := runInstanceVariant(inst, sum, Batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Variants() {
		if v == Batch {
			continue
		}
		got, err := runInstanceVariant(inst, sum, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d vs %d", v, len(got), len(ref))
		}
		for i := range got {
			if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
				t.Fatalf("%s rank %d mismatch", v, i)
			}
		}
	}
}

// Wide stars (7 children) stress multi-child successor generation.
func TestWideStarAllVariants(t *testing.T) {
	inst := workload.Star(7, 12, 4, workload.UniformWeights(), 5)
	ref, err := runInstanceVariant(inst, sum, Batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Skip("empty star instance")
	}
	for _, v := range Variants() {
		if v == Batch {
			continue
		}
		got, err := runInstanceVariant(inst, sum, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d vs %d", v, len(got), len(ref))
		}
		for i := range got {
			if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
				t.Fatalf("%s rank %d mismatch", v, i)
			}
		}
	}
}

// FuzzPartVsBatch checks ANYK-PART against the Batch baseline on a
// seeded random tree query with tie-heavy weights, under a ranking and
// a PART variant picked by the input: the weight sequence must equal
// Batch's exactly (integer weights make every aggregate exact), and the
// (tuple, weight) multiset must too. It drains the variant twice on the
// one T-DP, interleaved — A to the split the input picks (variant / 5),
// then B to the end, then the rest of A — and the two sequences, which
// share the T-DP's candidate structures, must be identical, ties
// included. Inputs whose output exceeds 20 000 results are skipped, so
// every run stays fast.
//
//	go test -fuzz FuzzPartVsBatch -fuzztime 40s -run '^$' ./internal/core
func FuzzPartVsBatch(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(20), uint8(5), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(3), uint8(20), uint8(4), uint8(36), uint8(0)) // Lazy, B runs after A's 7th answer
	f.Fuzz(func(t *testing.T, seed uint64, nRels, tuples, domain, variant, rank uint8) {
		variants := []Variant{Eager, Lazy, Quick, All, Take2}
		v, split := variants[int(variant)%len(variants)], int(variant)/len(variants)
		agg := ranking.All[int(rank)%len(ranking.All)]
		inst := workload.RandomTree(1+int(nRels)%5, 1+int(tuples)%24, 2+int(domain)%8, tieWeights(), seed)
		tdp, err := dp.Build(mustQ(inst), agg)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := tdp.NumSolutions(); err != nil || n > 20000 {
			t.Skip("output too large for one fuzz input")
		}
		want := Collect(NewBatch(context.Background(), tdp), 0)
		a, err := NewPart(context.Background(), tdp, v)
		if err != nil {
			t.Fatal(err)
		}
		var got []Result
		if split > 0 {
			got = Collect(a, split)
		}
		b, err := NewPart(context.Background(), tdp, v)
		if err != nil {
			t.Fatal(err)
		}
		gotB := Collect(b, 0)
		got = append(got, Collect(a, 0)...)
		if len(got) != len(want) {
			t.Fatalf("%s/%s: %d results, Batch %d", v, agg.Name(), len(got), len(want))
		}
		ra := relation.New("part", tdp.OutAttrs...)
		rb := relation.New("batch", tdp.OutAttrs...)
		for i := range got {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("%s/%s rank %d: weight %g, Batch %g", v, agg.Name(), i, got[i].Weight, want[i].Weight)
			}
			ra.AddTuple(got[i].Tuple, got[i].Weight)
			rb.AddTuple(want[i].Tuple, want[i].Weight)
		}
		if !ra.EqualAsSet(rb) {
			t.Fatalf("%s/%s: (tuple, weight) multiset differs from Batch", v, agg.Name())
		}
		if !slices.EqualFunc(got, gotB, func(x, y Result) bool { return x.Weight == y.Weight && slices.Equal(x.Tuple, y.Tuple) }) {
			t.Fatalf("%s/%s: the drain interleaved after %d answers and the one between differ", v, agg.Name(), split)
		}
	})
}
