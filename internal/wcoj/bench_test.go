package wcoj

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// benchCycle returns the n-cycle query E0(V0,V1), …, E{n-1}(V{n-1},V0)
// over n copies of one random edge list, in the order V0, …, V{n-1}.
// Vertex ids are multiplied by scale: order-preserving, so the join does
// the same seeks, while a large scale makes the key columns sparse.
func benchCycle(n, edges, domain int, scale relation.Value) ([]Atom, []string) {
	list := randomEdges(edges, domain, 42)
	for i := range list {
		list[i][0] *= scale
		list[i][1] *= scale
	}
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("V%d", i)
	}
	atoms := make([]Atom, n)
	for i := range atoms {
		atoms[i] = Atom{Rel: edgeRel(fmt.Sprintf("E%d", i), list), Vars: []string{vars[i], vars[(i+1)%n]}}
	}
	return atoms, vars
}

// benchMaterialize times Materialize on one query and reports the
// join's Seeks per run beside time and bytes, so a change to the trie
// cursor shows whether it made each seek cheaper or changed the work.
func benchMaterialize(b *testing.B, atoms []Atom, order []string) {
	b.ReportAllocs()
	var seeks int
	for b.Loop() {
		_, instr, err := Materialize(atoms, order, sum)
		if err != nil {
			b.Fatal(err)
		}
		seeks = instr.Seeks
	}
	b.ReportMetric(float64(seeks), "seeks/op")
}

func BenchmarkMaterializeTriangle(b *testing.B) {
	atoms, order := benchCycle(3, 20000, 1500, 1)
	benchMaterialize(b, atoms, order)
}

// BenchmarkMaterializeTriangleSparse is BenchmarkMaterializeTriangle with
// vertex ids 2²⁰ apart, so no depth-0 column is dense enough to address
// directly and every seek searches its column.
func BenchmarkMaterializeTriangleSparse(b *testing.B) {
	atoms, order := benchCycle(3, 20000, 1500, 1<<20)
	benchMaterialize(b, atoms, order)
}

func BenchmarkMaterializeCycle6(b *testing.B) {
	atoms, order := benchCycle(6, 4000, 1500, 1)
	benchMaterialize(b, atoms, order)
}
