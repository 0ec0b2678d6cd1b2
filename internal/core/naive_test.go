package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
)

func TestNaiveLawlerTinyPath(t *testing.T) {
	tdp := buildTDP(t, tinyPath(), sum)
	got := Collect(NewNaiveLawler(context.Background(), tdp), 0)
	want := []float64{2, 3, 5, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Weight != want[i] {
			t.Errorf("rank %d weight = %g, want %g", i, r.Weight, want[i])
		}
	}
}

func TestNaiveLawlerMatchesBatch(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		inst := workload.Path(3, 40, 6, workload.UniformWeights(), seed)
		ref := Collect(NewBatch(context.Background(), buildTDP(t, inst, sum)), 0)
		got := Collect(NewNaiveLawler(context.Background(), buildTDP(t, inst, sum)), 0)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d results, batch %d", seed, len(got), len(ref))
		}
		for i := range got {
			if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
				t.Fatalf("seed %d rank %d: %g vs %g", seed, i, got[i].Weight, ref[i].Weight)
			}
		}
	}
}

func TestNaiveLawlerBushyTree(t *testing.T) {
	inst := bushyInstance(123)
	ref := Collect(NewBatch(context.Background(), buildTDP(t, inst, sum)), 0)
	got := Collect(NewNaiveLawler(context.Background(), buildTDP(t, inst, sum)), 0)
	if len(got) != len(ref) {
		t.Fatalf("%d results, batch %d", len(got), len(ref))
	}
	for i := range got {
		if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
			t.Fatalf("rank %d: %g vs %g", i, got[i].Weight, ref[i].Weight)
		}
	}
}

func TestNaiveLawlerEmpty(t *testing.T) {
	inst := workload.Path(2, 5, 2, workload.UniformWeights(), 1)
	// Force emptiness: disjoint domains.
	inst.Rels[1] = inst.Rels[1].Select(func(tp relation.Tuple, _ float64) bool { return false })
	tdp := buildTDP(t, inst, sum)
	if _, ok := NewNaiveLawler(context.Background(), tdp).Next(); ok {
		t.Error("empty query yielded a result")
	}
}

func TestNaiveLawlerMaxAggregate(t *testing.T) {
	inst := workload.Path(3, 30, 5, workload.UniformWeights(), 4)
	ref := Collect(NewBatch(context.Background(), buildTDP(t, inst, ranking.MaxCost)), 0)
	got := Collect(NewNaiveLawler(context.Background(), buildTDP(t, inst, ranking.MaxCost)), 0)
	if len(got) != len(ref) {
		t.Fatalf("%d vs %d", len(got), len(ref))
	}
	for i := range got {
		if math.Abs(got[i].Weight-ref[i].Weight) > 1e-9 {
			t.Fatalf("rank %d: %g vs %g", i, got[i].Weight, ref[i].Weight)
		}
	}
}

// Property: naive Lawler agrees with Lazy on random instances.
func TestNaiveLawlerAgreesWithLazyProperty(t *testing.T) {
	f := func(seed uint16) bool {
		inst := workload.Path(3, 25, 4, workload.UniformWeights(), uint64(seed))
		q := mustQ(inst)
		t1, err := dp.Build(q, sum)
		if err != nil {
			return false
		}
		t2, err := dp.Build(q, sum)
		if err != nil {
			return false
		}
		lazy, err := NewPart(context.Background(), t1, Lazy)
		if err != nil {
			return false
		}
		a := Collect(lazy, 0)
		b := Collect(NewNaiveLawler(context.Background(), t2), 0)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Abs(a[i].Weight-b[i].Weight) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
