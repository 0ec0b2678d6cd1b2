package yannakakis

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/join"
	"repro/internal/ranking"
	"repro/internal/relation"
)

var sum = ranking.SumCost

// pathData builds relations for Path(l) with the given edge lists.
func pathData(l int, edges [][][2]relation.Value) []*relation.Relation {
	rels := make([]*relation.Relation, l)
	for i := 0; i < l; i++ {
		r := relation.New("R"+string(rune('1'+i)), "X", "Y")
		for _, e := range edges[i] {
			r.AddWeighted(float64(e[0]+e[1]), e[0], e[1])
		}
		rels[i] = r
	}
	return rels
}

func mustQuery(t *testing.T, h *hypergraph.Hypergraph, rels []*relation.Relation) *Query {
	t.Helper()
	q, err := NewQuery(h, rels)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewQueryValidation(t *testing.T) {
	h := hypergraph.Path(2)
	r := relation.New("R1", "X", "Y")
	if _, err := NewQuery(h, []*relation.Relation{r}); err == nil {
		t.Error("relation count mismatch should fail")
	}
	bad := relation.New("R2", "X")
	if _, err := NewQuery(h, []*relation.Relation{r, bad}); err == nil {
		t.Error("arity mismatch should fail")
	}
	ch := hypergraph.Cycle(3)
	r2 := relation.New("R2", "X", "Y")
	r3 := relation.New("R3", "X", "Y")
	if _, err := NewQuery(ch, []*relation.Relation{r, r2, r3}); err == nil {
		t.Error("cyclic query should fail")
	}
}

func TestEvaluateTwoPath(t *testing.T) {
	h := hypergraph.Path(2) // R1(A0,A1), R2(A1,A2)
	rels := pathData(2, [][][2]relation.Value{
		{{1, 10}, {2, 20}},
		{{10, 100}, {10, 101}, {30, 300}},
	})
	q := mustQuery(t, h, rels)
	out := q.Evaluate(sum)
	if out.Len() != 2 {
		t.Fatalf("output size = %d, want 2", out.Len())
	}
	// Weights: (1,10,100): (1+10)+(10+100)=121; (1,10,101): 11+111=122.
	total := out.Weights[0] + out.Weights[1]
	if total != 243 {
		t.Errorf("total weight = %g, want 243", total)
	}
}

func TestEvaluateMatchesBinaryPlan(t *testing.T) {
	h := hypergraph.Path(3)
	rels := pathData(3, [][][2]relation.Value{
		{{1, 2}, {1, 3}, {4, 5}},
		{{2, 6}, {3, 6}, {3, 7}, {5, 8}},
		{{6, 9}, {7, 9}, {8, 10}, {11, 12}},
	})
	q := mustQuery(t, h, rels)
	got := q.Evaluate(sum)

	// Reference: binary plan over renamed relations.
	renamed := make([]*relation.Relation, 3)
	for i := range rels {
		renamed[i] = relation.New(rels[i].Name, h.Edges[i].Vars...)
		renamed[i].Tuples = rels[i].Tuples
		renamed[i].Weights = rels[i].Weights
	}
	want, _ := join.NewPlan(sum, renamed[0], renamed[1], renamed[2]).Execute()
	if got.Len() != want.Len() {
		t.Fatalf("Yannakakis size %d != plan size %d", got.Len(), want.Len())
	}
	// The two evaluators may order output attributes differently; compare
	// after projecting onto a common order (Project preserves weights).
	gotAligned, err := got.Project(want.Attrs...)
	if err != nil {
		t.Fatal(err)
	}
	if !gotAligned.EqualAsSet(want) {
		t.Errorf("result sets differ:\n%v\n%v", gotAligned, want)
	}
}

func TestFullReduceRemovesDanglingTuples(t *testing.T) {
	h := hypergraph.Path(2)
	rels := pathData(2, [][][2]relation.Value{
		{{1, 10}, {2, 99}}, // (2,99) dangles
		{{10, 100}, {55, 500}},
	})
	q := mustQuery(t, h, rels)
	red := q.FullReduce()
	if red[0].Len() != 1 || red[1].Len() != 1 {
		t.Fatalf("reduced sizes = %d,%d, want 1,1", red[0].Len(), red[1].Len())
	}
	if red[0].Tuples[0][0] != 1 || red[1].Tuples[0][1] != 100 {
		t.Error("wrong tuples survived reduction")
	}
}

// Global consistency: every tuple surviving the full reducer participates
// in at least one result.
func TestFullReduceGlobalConsistencyProperty(t *testing.T) {
	f := func(e1, e2, e3 []uint8) bool {
		mk := func(name string, data []uint8, mod relation.Value) *relation.Relation {
			r := relation.New(name, "X", "Y")
			for i, v := range data {
				r.AddWeighted(float64(i), relation.Value(v)%mod, relation.Value(v/3)%mod)
			}
			return r
		}
		rels := []*relation.Relation{mk("R1", e1, 5), mk("R2", e2, 5), mk("R3", e3, 5)}
		h := hypergraph.Path(3)
		q, err := NewQuery(h, rels)
		if err != nil {
			return false
		}
		red := q.FullReduce()
		out := q.Evaluate(sum)
		// Project output onto each node's vars; reduced relation must be a
		// subset of it (as value sets).
		for i := range red {
			if out.Len() == 0 {
				if red[i].Len() != 0 {
					return false
				}
				continue
			}
			proj, err := out.Project(h.Edges[i].Vars...)
			if err != nil {
				return false
			}
			present := make(map[string]bool)
			for _, tp := range proj.Tuples {
				present[fmt.Sprint(tp)] = true
			}
			for _, tp := range red[i].Tuples {
				if !present[fmt.Sprint(tp)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Yannakakis intermediates stay output-bounded on the skewed instance
// where binary plans blow up: R(A,B) with hub, S(B,C) fanout, T(C,D)
// selective.
func TestYannakakisAvoidsBlowup(t *testing.T) {
	n := relation.Value(200)
	r1 := relation.New("R1", "A", "B")
	r2 := relation.New("R2", "B", "C")
	r3 := relation.New("R3", "C", "D")
	for i := relation.Value(0); i < n; i++ {
		r1.Add(i, 0)   // all point at hub 0
		r2.Add(0, i)   // hub fans out
		r3.Add(n+7, i) // none of r2's C values match
	}
	h := hypergraph.Path(3)
	q := mustQuery(t, h, []*relation.Relation{r1, r2, r3})
	red := q.FullReduce()
	for i, r := range red {
		if r.Len() != 0 {
			t.Errorf("reduced relation %d has %d tuples, want 0", i, r.Len())
		}
	}
	// Contrast: the binary plan materialises n² intermediate tuples.
	renamed := make([]*relation.Relation, 3)
	for i, r := range []*relation.Relation{r1, r2, r3} {
		renamed[i] = relation.New(r.Name, h.Edges[i].Vars...)
		renamed[i].Tuples = r.Tuples
		renamed[i].Weights = r.Weights
	}
	_, stats := join.NewPlan(sum, renamed[0], renamed[1], renamed[2]).Execute()
	if stats.MaxIntermediate != int(n)*int(n) {
		t.Errorf("binary plan max intermediate = %d, want %d", stats.MaxIntermediate, int(n)*int(n))
	}
}
