package wcoj

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/relation"
)

// dupEdgeRel is an edge relation over randomEdges whose weights depend
// on the row index, not on the edge: the list repeats edges, so the
// relation holds duplicate tuples with distinct weights, and the order
// in which a join emits them is visible in its output.
func dupEdgeRel(name string, n, domain int, seed uint64, flip bool) *relation.Relation {
	r := relation.New(name, "src", "dst")
	for i, e := range randomEdges(n, domain, seed) {
		if flip {
			e[0], e[1] = e[1], e[0]
		}
		r.AddWeighted(float64(i%97)/8, e[0], e[1])
	}
	return r
}

// pinFixtures are a triangle and a 6-cycle, one atom of the cycle with
// its columns reversed against the variable order. Both repeat tuples
// with distinct weights.
func pinFixtures() []struct {
	name  string
	atoms []Atom
	order []string
} {
	tri := []Atom{
		{Rel: dupEdgeRel("R", 400, 20, 3, false), Vars: []string{"A", "B"}},
		{Rel: dupEdgeRel("S", 400, 20, 5, false), Vars: []string{"B", "C"}},
		{Rel: dupEdgeRel("T", 400, 20, 8, false), Vars: []string{"C", "A"}},
	}
	vars := []string{"A", "B", "C", "D", "E", "F"}
	var c6 []Atom
	for i := range vars {
		u, w := vars[i], vars[(i+1)%len(vars)]
		flip := i == 3
		if flip {
			u, w = w, u
		}
		c6 = append(c6, Atom{Rel: dupEdgeRel(fmt.Sprintf("E%d", i), 60, 10, uint64(11+i), flip), Vars: []string{u, w}})
	}
	return []struct {
		name  string
		atoms []Atom
		order []string
	}{
		{"triangle", tri, []string{"A", "B", "C"}},
		{"c6", c6, vars},
	}
}

// relationHash is an FNV-1a hash of a relation's tuples and weights in
// row order.
func relationHash(r *relation.Relation) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i, t := range r.Tuples {
		for _, v := range t {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Weights[i]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestJoinWorkAndOutputPinned pins what a change to the trie cursor must
// not move: the exact Instr of Generic-Join and Leapfrog Triejoin, and
// the rows Materialize and MaterializeParallelHinted emit, in order and with
// their weights (the order of duplicate tuples included), on a triangle
// and a 6-cycle.
func TestJoinWorkAndOutputPinned(t *testing.T) {
	want := map[string]struct {
		gj, lf Instr
		hash   uint64
	}{
		"triangle": {Instr{Seeks: 6486, Emits: 7645}, Instr{Seeks: 7982, Emits: 7645}, 0x6d429f6299412d8f},
		"c6":       {Instr{Seeks: 44234, Emits: 38075}, Instr{Seeks: 49195, Emits: 38075}, 0x24aea3c482f517f2},
	}
	for _, fx := range pinFixtures() {
		w := want[fx.name]
		out, gj, err := Materialize(fx.atoms, fx.order, sum)
		if err != nil {
			t.Fatal(err)
		}
		if *gj != w.gj {
			t.Errorf("%s: Generic-Join Instr = %+v, want %+v", fx.name, *gj, w.gj)
		}
		if h := relationHash(out); h != w.hash {
			t.Errorf("%s: Materialize output hash = %#x (%d rows), want %#x", fx.name, h, out.Len(), w.hash)
		}
		if !hasWeightedDuplicate(out) {
			t.Errorf("%s: no duplicate tuple with distinct weights in the output", fx.name)
		}
		lf, err := LeapfrogTriejoin(fx.atoms, fx.order, sum, emitNothing)
		if err != nil {
			t.Fatal(err)
		}
		if *lf != w.lf {
			t.Errorf("%s: Leapfrog Instr = %+v, want %+v", fx.name, *lf, w.lf)
		}
		for _, workers := range []int{1, 2, 4} {
			out, instr, err := MaterializeParallelHinted(context.Background(), fx.atoms, fx.order, sum, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if *instr != w.gj {
				t.Errorf("%s/workers=%d: Instr = %+v, want %+v", fx.name, workers, *instr, w.gj)
			}
			if h := relationHash(out); h != w.hash {
				t.Errorf("%s/workers=%d: output hash = %#x, want %#x", fx.name, workers, h, w.hash)
			}
		}
	}
}

// hasWeightedDuplicate reports whether two adjacent rows of r hold the
// same tuple with different weights.
func hasWeightedDuplicate(r *relation.Relation) bool {
	for i := 1; i < r.Len(); i++ {
		if slices.Equal(r.Tuples[i-1], r.Tuples[i]) && r.Weights[i-1] != r.Weights[i] {
			return true
		}
	}
	return false
}

// TestDriverTakesItsBlock counts the seeks of R(A) ⋈ S(A) with R = {1,
// 2, 3} and S = {2, 3, 4, 5}. R's interval is the smaller, so R drives:
// each of its 3 values costs one nextBlock of R, whose block is R's
// interval, and one narrow of S, so Generic-Join seeks 6 times; a driver
// that narrowed itself as well would seek 9. Leapfrog takes each of the
// 2 agreed values' blocks in both atoms and advances the first atom to
// its block's end without a further seek: with R first it seeks R up to
// S once and S up to R once, 6 in all (8 with a narrow per atom and a
// nextBlock to advance); with S first it seeks R up to S three times,
// the last past R's end, 7 in all. The counts hold on dense columns
// (offset lookups) and on sparse ones (searches).
func TestDriverTakesItsBlock(t *testing.T) {
	for _, scale := range []relation.Value{1, 100} {
		unary := func(name string, vals ...relation.Value) Atom {
			r := relation.New(name, "A")
			for _, v := range vals {
				r.Add(v * scale)
			}
			return Atom{Rel: r, Vars: []string{"A"}}
		}
		r, s := unary("R", 1, 2, 3), unary("S", 2, 3, 4, 5)
		order := []string{"A"}
		for _, c := range []struct {
			atoms   []Atom
			lfSeeks int
		}{{[]Atom{r, s}, 6}, {[]Atom{s, r}, 7}} {
			atoms := c.atoms
			name := fmt.Sprintf("scale=%d/%s-first", scale, atoms[0].Rel.Name)
			gj, err := GenericJoin(atoms, order, sum, emitNothing)
			if err != nil {
				t.Fatal(err)
			}
			if want := (Instr{Seeks: 6, Emits: 2}); *gj != want {
				t.Errorf("%s: Generic-Join Instr = %+v, want %+v", name, *gj, want)
			}
			_, par, err := MaterializeParallelHinted(context.Background(), atoms, order, sum, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if *par != *gj {
				t.Errorf("%s: parallel Instr = %+v, want %+v", name, *par, *gj)
			}
			lf, err := LeapfrogTriejoin(atoms, order, sum, emitNothing)
			if err != nil {
				t.Fatal(err)
			}
			if want := (Instr{Seeks: c.lfSeeks, Emits: 2}); *lf != want {
				t.Errorf("%s: Leapfrog Instr = %+v, want %+v", name, *lf, want)
			}
		}
	}
}
