package dp

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// referencePlan builds q's plan by the two passes the build kernel
// fuses: the bottom-up semi-join sweep (yannakakis.ReduceKeep), then,
// per node, a fresh index of its reduced rows on the key it shares with
// its parent, which the parent's reduced rows probe again.
func referencePlan(t testing.TB, q *yannakakis.Query) *Plan {
	t.Helper()
	bu, err := q.ReduceKeep(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := len(q.Tree.Order)
	posOf := make([]int, m)
	for pos, edge := range q.Tree.Order {
		posOf[edge] = pos
	}
	p := &Plan{nodes: make([]*Node, m)}
	for pos, edge := range q.Tree.Order {
		n := &Node{Rel: bu[edge], Parent: -1}
		if par := q.Tree.Parent[edge]; par >= 0 {
			n.Parent = posOf[par]
		}
		for _, c := range q.Tree.Children[edge] {
			n.Children = append(n.Children, posOf[c])
		}
		n.ChildGroup = make([][]int32, len(n.Children))
		p.nodes[pos] = n
	}
	for _, lv := range q.Tree.Levels() {
		poss := make([]int, len(lv))
		for i, u := range lv {
			poss[i] = posOf[u]
		}
		p.levels = append(p.levels, poss)
	}
	seen := map[string]bool{}
	for pos, n := range p.nodes {
		for col, v := range n.Rel.Attrs {
			if !seen[v] {
				seen[v] = true
				p.emits = append(p.emits, emitSpec{node: pos, col: col})
				p.outAttrs = append(p.outAttrs, v)
			}
		}
	}
	for pos, n := range p.nodes {
		if n.Parent < 0 {
			rows := make([]int32, n.Rel.Len())
			for i := range rows {
				rows[i] = int32(i)
			}
			n.Groups = OneGroup(rows)
			continue
		}
		parent := p.nodes[n.Parent]
		shared := parent.Rel.SharedAttrs(n.Rel)
		ix := relation.MustIndex(n.Rel, shared...)
		n.Groups = Grouping{start: []int32{0}}
		for g := range ix.Keys() {
			n.Groups.rows = append(n.Groups.rows, ix.Rows(g)...)
			n.Groups.start = append(n.Groups.start, int32(len(n.Groups.rows)))
		}
		pCols, err := parent.Rel.AttrIndexes(shared)
		if err != nil {
			t.Fatal(err)
		}
		cg := make([]int32, parent.Rel.Len())
		for row, tp := range parent.Rel.Tuples {
			cg[row] = int32(ix.FindBy(tp, pCols))
		}
		parent.ChildGroup[childIndex(p.nodes, n.Parent, pos)] = cg
	}
	return p
}

// sameGroups reports whether a and b hold the same groups of the same
// rows in the same order.
func sameGroups(a, b Grouping) bool {
	if a.Len() != b.Len() {
		return false
	}
	for g := range int32(a.Len()) {
		if !slices.Equal(a.Rows(g), b.Rows(g)) {
			return false
		}
	}
	return true
}

// assertMatchesReference compares a plan with referencePlan's node for
// node: reduced rows and weights in order, groups, child maps, tree
// wiring, levels and emit map. An empty array and a nil one are the
// same rows.
func assertMatchesReference(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	if !reflect.DeepEqual(got.outAttrs, want.outAttrs) || !reflect.DeepEqual(got.emits, want.emits) || !reflect.DeepEqual(got.levels, want.levels) {
		t.Fatalf("%s: schema, emit map or levels differ", label)
	}
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.nodes), len(want.nodes))
	}
	for pos, w := range want.nodes {
		g := got.nodes[pos]
		if g.Parent != w.Parent || !slices.Equal(g.Children, w.Children) {
			t.Fatalf("%s: node %d tree wiring differs", label, pos)
		}
		if !slices.Equal(g.Rel.Attrs, w.Rel.Attrs) || !relation.SameContent(g.Rel, w.Rel) {
			t.Fatalf("%s: node %d rows %v, want %v", label, pos, g.Rel, w.Rel)
		}
		if !sameGroups(g.Groups, w.Groups) {
			t.Fatalf("%s: node %d groups %v, want %v", label, pos, g.Groups, w.Groups)
		}
		if len(g.ChildGroup) != len(w.ChildGroup) {
			t.Fatalf("%s: node %d has %d child maps, want %d", label, pos, len(g.ChildGroup), len(w.ChildGroup))
		}
		for ci := range w.ChildGroup {
			if !slices.Equal(g.ChildGroup[ci], w.ChildGroup[ci]) {
				t.Fatalf("%s: node %d child map %d = %v, want %v", label, pos, ci, g.ChildGroup[ci], w.ChildGroup[ci])
			}
		}
	}
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// row draws one tuple over a three-value domain, so rows repeat, join
// and dangle, and a weight out of three, so weights tie.
func (b *fuzzBytes) row(arity int) (relation.Tuple, float64) {
	t := make(relation.Tuple, arity)
	for i := range t {
		t[i] = relation.Value(b.next() % 3)
	}
	return t, float64(b.next() % 3)
}

// instance decodes a join tree of 2–7 atoms and its relations. Atom i
// owns variable Vi and shares one or two of its tree parent's variables
// (keys of width 1 and 2); atom 0 also holds W. Some relations name
// their columns after the variables, the others not.
func (b *fuzzBytes) instance() (*hypergraph.Hypergraph, []*relation.Relation) {
	m := 2 + b.next()%6
	vars := [][]string{{"V0", "W"}}
	for i := 1; i < m; i++ {
		pv := vars[b.next()%i]
		k := 1 + b.next()%min(2, len(pv))
		start := b.next() % len(pv)
		v := []string{}
		for j := 0; j < k; j++ {
			v = append(v, pv[(start+j)%len(pv)])
		}
		vars = append(vars, append(v, fmt.Sprintf("V%d", i)))
	}
	edges := make([]hypergraph.Edge, m)
	rels := make([]*relation.Relation, m)
	for i, v := range vars {
		edges[i] = hypergraph.E(fmt.Sprintf("R%d", i), v...)
		attrs := v
		if b.next()%2 == 0 {
			attrs = make([]string, len(v))
			for j := range attrs {
				attrs[j] = fmt.Sprintf("A%d", j)
			}
		}
		r := relation.New(edges[i].Name, attrs...)
		for n := b.next() % 9; n > 0; n-- {
			r.AddTuple(b.row(len(attrs)))
		}
		rels[i] = r
	}
	return hypergraph.New(edges...), rels
}

// batch decodes an append/delete batch over rels: each relation is
// left alone, or loses some rows and gains up to three. A relation so
// touched is flagged changed even when it comes out equal.
func (b *fuzzBytes) batch(rels []*relation.Relation) ([]*relation.Relation, []bool) {
	out := slices.Clone(rels)
	changed := make([]bool, len(rels))
	for i, r := range rels {
		if b.next()%3 != 0 {
			continue
		}
		del := b.next()
		nr := relation.New(r.Name, r.Attrs...)
		for j, tp := range r.Tuples {
			if del&(1<<(j%8)) == 0 {
				nr.AddTuple(tp, r.Weights[j])
			}
		}
		for n := b.next() % 4; n > 0; n-- {
			nr.AddTuple(b.row(r.Arity()))
		}
		out[i], changed[i] = nr, true
	}
	return out, changed
}

// FuzzPlanBuild checks the one-pass build against the two passes it
// replaces (referencePlan), on a cold build, on fully reduced relations
// (a bag tree's input) and on a delta from the cold build, and
// the delta against a cold build of the same relations: same rows,
// groups and child maps node for node. Changed must flag exactly the
// nodes whose rows differ, Regrouped count them, and every other node
// share the old rows.
func FuzzPlanBuild(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 5, 0, 0, 0, 1, 1, 1, 2, 2})
	f.Add([]byte{5, 0, 1, 1, 1, 0, 0, 2, 1, 0, 3, 1, 1, 1, 7, 0, 1, 2, 2, 1, 0, 6, 1, 1, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		h, rels := b.instance()
		q, err := yannakakis.NewQuery(h, rels)
		if err != nil {
			t.Fatal(err)
		}
		workers := 1 + b.next()%2
		old, err := NewPlan(q, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, "cold", old, referencePlan(t, q))
		// A bag tree's build: the same pass over fully reduced relations.
		full := &yannakakis.Query{Rels: q.FullReduce(), H: h, Tree: q.Tree}
		fullPlan, err := NewPlan(full)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, "fully reduced", fullPlan, referencePlan(t, full))

		newRels, changed := b.batch(rels)
		q2, err := yannakakis.NewQuery(h, newRels)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := NewPlanDelta(q2, old, changed, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, "delta", got, referencePlan(t, q2))
		cold, err := NewPlan(q2)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePlanFields(t, "delta against cold", got, cold)
		regrouped := 0
		for pos, c := range st.Changed {
			same := relation.SameContent(got.nodes[pos].Rel, old.nodes[pos].Rel)
			if c == same {
				t.Fatalf("node %d: Changed=%v, but its rows are the same: %v", pos, c, same)
			}
			if !c && (got.nodes[pos].Rel != old.nodes[pos].Rel || !reflect.DeepEqual(got.nodes[pos].Groups, old.nodes[pos].Groups)) {
				t.Fatalf("clean node %d does not share the old rows and groups", pos)
			}
			if c {
				regrouped++
			}
		}
		if st.Regrouped != regrouped {
			t.Fatalf("Regrouped = %d, %d nodes changed", st.Regrouped, regrouped)
		}
	})
}

// newPlanStar is the fixed star of the allocation pin: eight atoms of
// 300 rows over a domain of 300, so 773 of the 2 400 rows are kept.
func newPlanStar(t testing.TB) *yannakakis.Query {
	inst := workload.Star(8, 300, 300, workload.UniformWeights(), 5)
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestNewPlanAllocs pins one index per tree edge: a cold NewPlan of
// newPlanStar allocates less than the build that semi-joined every
// parent against an index of each child (one Select copy per child) and
// then indexed each child again to group it, measured at 363
// allocations (this build: 279).
func TestNewPlanAllocs(t *testing.T) {
	const twoPasses = 363
	q := newPlanStar(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewPlan(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= twoPasses {
		t.Errorf("a cold NewPlan of the star allocated %.0f times, want fewer than the two-pass build's %d", allocs, twoPasses)
	}
}

func benchmarkNewPlan(b *testing.B, inst *workload.Instance) {
	q, err := yannakakis.NewQuery(inst.H, inst.Rels)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewPlan(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewPlanStar8 and BenchmarkNewPlanPath4 build cold plans, on
// one worker, of a star and a path of the benchmark's star8 and path4
// sizes.
func BenchmarkNewPlanStar8(b *testing.B) {
	benchmarkNewPlan(b, workload.Star(8, 32000, 1601, workload.UniformWeights(), 1))
}

func BenchmarkNewPlanPath4(b *testing.B) {
	benchmarkNewPlan(b, workload.Path(4, 4000, 801, workload.UniformWeights(), 1))
}
