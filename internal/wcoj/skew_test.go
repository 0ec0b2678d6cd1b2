package wcoj

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/relation"
)

// hubEdges builds a graph with one heavy hitter: vertex 0 links to and
// from every other vertex, the rest form a sparse ring with chords, so
// the triangle join's subtree under A=0 dwarfs every other value's.
func hubEdges(n int) [][2]relation.Value {
	var edges [][2]relation.Value
	for j := int64(1); j < int64(n); j++ {
		edges = append(edges, [2]relation.Value{0, j}, [2]relation.Value{j, 0})
	}
	for j := int64(1); j < int64(n); j++ {
		k := j%int64(n-1) + 1
		edges = append(edges, [2]relation.Value{j, k})
		edges = append(edges, [2]relation.Value{j, (j*7)%int64(n-1) + 1})
	}
	return edges
}

// TestSkewAwareHeavyHitterBitIdentical: on the hub fixture the
// skew-aware strategy must stay bit-identical to sequential Materialize
// for every worker count — tuple order, weights, and Instr totals.
func TestSkewAwareHeavyHitterBitIdentical(t *testing.T) {
	atoms := triangleAtoms(hubEdges(60))
	order := []string{"A", "B", "C"}
	want, wantInstr, err := Materialize(atoms, order, sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, gotInstr, err := MaterializeParallelHinted(context.Background(), atoms, order, sum, workers, nil)
		if err != nil {
			t.Fatalf("skew-aware workers=%d: %v", workers, err)
		}
		assertSameRelation(t, fmt.Sprintf("skew-aware/workers=%d", workers), got, want)
		if *gotInstr != *wantInstr {
			t.Errorf("skew-aware/workers=%d: Instr = %+v, want %+v", workers, *gotInstr, *wantInstr)
		}
	}
}

// TestPlanTasksSubdividesHeavyValue is the worker-imbalance regression
// test at the planning level: on the hub fixture the heavy hitter owns
// more than a per-task budget of work, the legacy chunking necessarily
// pins it whole onto one chunk, and the skew-aware planner must instead
// spread it over several second-variable tasks.
func TestPlanTasksSubdividesHeavyValue(t *testing.T) {
	atoms := triangleAtoms(hubEdges(60))
	order := []string{"A", "B", "C"}
	const chunks = 16

	base, err := newJoin(context.Background(), 1, atoms, order, sum, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	vals := base.levelValues(0)
	total, maxW := 0.0, 0.0
	var maxV relation.Value
	for _, lv := range vals {
		total += lv.w
		if lv.w > maxW {
			maxW, maxV = lv.w, lv.v
		}
	}
	if maxV != 0 {
		t.Fatalf("heaviest first-variable value is %d, fixture wants the hub 0", maxV)
	}
	// The pathology premise: the hub exceeds the per-task budget, so
	// any strategy keeping it whole is at least maxW/total ≈
	// sequential.
	if maxW <= total/chunks {
		t.Fatalf("fixture not skewed enough: hub weight %.0f ≤ budget %.0f", maxW, total/chunks)
	}

	tasks := base.planTasks(vals, chunks, nil)
	hubTasks := 0
	for _, tk := range tasks {
		if tk.sub != nil && tk.heavy == maxV {
			hubTasks++
		}
		for _, v := range tk.light {
			if v == maxV {
				t.Fatal("hub value planned as light")
			}
		}
	}
	if hubTasks < 2 {
		t.Fatalf("hub subdivided into %d tasks, want ≥ 2", hubTasks)
	}

	// Executing the plan must reproduce the sequential output exactly
	// (order included) when concatenated by task index.
	want, _, err := Materialize(atoms, order, sum)
	if err != nil {
		t.Fatal(err)
	}
	got := relation.New("GJ", order...)
	for i := range tasks {
		w := base.clone(func(tp relation.Tuple, wt float64) bool {
			got.AddWeighted(wt, tp...) // tp is borrowed: copy it
			return true
		})
		tasks[i].run(w)
	}
	assertSameRelation(t, "planTasks replay", got, want)
}

// TestSkewHintsLowerThreshold: a value below the local heavy threshold
// but above half of it is subdivided only when the catalog hints it,
// and hinting never changes results.
func TestSkewHintsLowerThreshold(t *testing.T) {
	// R(A,B): value 7 has a moderate fan-out, values 100.. are single.
	var edges [][2]relation.Value
	for j := int64(0); j < 40; j++ {
		edges = append(edges, [2]relation.Value{7, j})
	}
	for v := int64(100); v < 200; v++ {
		edges = append(edges, [2]relation.Value{v, v})
	}
	atoms := []Atom{{Rel: edgeRel("R", edges), Vars: []string{"A", "B"}}}
	order := []string{"A", "B"}
	base, err := newJoin(context.Background(), 1, atoms, order, sum, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	vals := base.levelValues(0)
	// Total weight 140 over 2 chunks → budget 70: value 7's weight 40
	// sits between budget/2 and budget, the hint-sensitive band.
	plain := base.planTasks(vals, 2, nil)
	for _, tk := range plain {
		if tk.sub != nil {
			t.Fatalf("value %d subdivided without a hint", tk.heavy)
		}
	}
	base2, _ := newJoin(context.Background(), 1, atoms, order, sum, nil, false)
	vals2 := base2.levelValues(0)
	hints := func(v string) []relation.Value {
		if v == "A" {
			return []relation.Value{7}
		}
		return nil
	}
	hintedTasks := base2.planTasks(vals2, 2, hints)
	found := false
	for _, tk := range hintedTasks {
		if tk.sub != nil && tk.heavy == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("hinted value 7 not subdivided")
	}

	want, wantInstr, err := Materialize(atoms, order, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, gotInstr, err := MaterializeParallelHinted(context.Background(), atoms, order, sum, 2, hints)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "hinted", got, want)
	if *gotInstr != *wantInstr {
		t.Errorf("hinted: Instr = %+v, want %+v", *gotInstr, *wantInstr)
	}
}

// TestSkewSingleVariableOrder: with a one-variable order there is no
// second level to subdivide, so every value stays light and results
// still match.
func TestSkewSingleVariableOrder(t *testing.T) {
	r := relation.New("U", "X")
	for i := int64(0); i < 50; i++ {
		r.AddTuple(relation.Tuple{i % 7}, float64(i))
	}
	atoms := []Atom{{Rel: r, Vars: []string{"A"}}}
	order := []string{"A"}
	want, wantInstr, err := Materialize(atoms, order, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, gotInstr, err := MaterializeParallelHinted(context.Background(), atoms, order, sum, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "unary", got, want)
	if *gotInstr != *wantInstr {
		t.Errorf("unary: Instr = %+v, want %+v", *gotInstr, *wantInstr)
	}
}
