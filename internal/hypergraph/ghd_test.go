package hypergraph

import (
	"fmt"
	"testing"
	"time"
)

// checkDecomposition validates the structural invariants every
// decomposition must satisfy: bag hypergraph acyclic, every edge
// contained in some bag, Contains consistent.
func checkDecomposition(t *testing.T, h *Hypergraph, d *Decomposition) {
	t.Helper()
	bagEdges := make([]Edge, len(d.Bags))
	for i, b := range d.Bags {
		bagEdges[i] = Edge{Name: fmt.Sprintf("G%d", i), Vars: b}
	}
	bh := New(bagEdges...)
	tree, ok := bh.BuildJoinTree()
	if !ok {
		t.Fatalf("bag hypergraph of %s is not acyclic", d)
	}
	if v := bh.VerifyRunningIntersection(tree); v != "" {
		t.Fatalf("bag tree of %s violates running intersection at %s", d, v)
	}
	if len(d.Contains) != len(d.Bags) {
		t.Fatalf("Contains has %d entries for %d bags", len(d.Contains), len(d.Bags))
	}
	covered := make([]bool, len(h.Edges))
	for bi, edges := range d.Contains {
		set := make(map[string]bool)
		for _, v := range d.Bags[bi] {
			set[v] = true
		}
		for _, ei := range edges {
			for _, v := range h.Edges[ei].Vars {
				if !set[v] {
					t.Fatalf("edge %s listed in bag %v but not contained", h.Edges[ei].Name, d.Bags[bi])
				}
			}
			covered[ei] = true
		}
	}
	for ei, ok := range covered {
		if !ok {
			t.Fatalf("edge %s not contained in any bag of %s", h.Edges[ei].Name, d)
		}
	}
}

func TestDecomposeTriangle(t *testing.T) {
	h := Cycle(3)
	d, err := h.DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, h, d)
	if len(d.Bags) != 1 || len(d.Bags[0]) != 3 {
		t.Fatalf("triangle should decompose to one 3-var bag, got %s", d)
	}
	if d.Width < 1.49 || d.Width > 1.51 {
		t.Errorf("triangle width = %g, want 1.5", d.Width)
	}
}

func TestDecomposeCycles(t *testing.T) {
	for l := 4; l <= 8; l++ {
		h := Cycle(l)
		d, err := h.DecomposeCosted(nil)
		if err != nil {
			t.Fatalf("C%d: %v", l, err)
		}
		checkDecomposition(t, h, d)
		// An l-cycle has fhtw ≤ 2; the search must do at least that well.
		if d.Width > 2+1e-9 {
			t.Errorf("C%d width = %g, want <= 2", l, d.Width)
		}
	}
}

func TestDecomposeClique(t *testing.T) {
	// K4: 6 edges over 4 vars; fractional cover of all vars is 2.
	h := New(
		E("R1", "A", "B"), E("R2", "A", "C"), E("R3", "A", "D"),
		E("R4", "B", "C"), E("R5", "B", "D"), E("R6", "C", "D"),
	)
	d, err := h.DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, h, d)
	if d.Width > 2+1e-9 {
		t.Errorf("K4 width = %g, want <= 2 (AGM of the single bag)", d.Width)
	}
}

func TestDecomposeBowtie(t *testing.T) {
	// Two triangles sharing vertex A: bags {A,B,C} and {A,D,E} are optimal.
	h := New(
		E("R1", "A", "B"), E("R2", "B", "C"), E("R3", "C", "A"),
		E("R4", "A", "D"), E("R5", "D", "E"), E("R6", "E", "A"),
	)
	d, err := h.DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, h, d)
	if len(d.Bags) != 2 {
		t.Fatalf("bowtie should split into two triangle bags, got %s", d)
	}
	if d.Width > 1.5+1e-9 {
		t.Errorf("bowtie width = %g, want 1.5", d.Width)
	}
}

func TestDecomposeStarWithChord(t *testing.T) {
	// Star A-B, A-C, A-D plus chord B-C: triangle {A,B,C} + bag {A,D}.
	h := New(E("R1", "A", "B"), E("R2", "A", "C"), E("R3", "A", "D"), E("R4", "B", "C"))
	d, err := h.DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, h, d)
	if d.Width > 1.5+1e-9 {
		t.Errorf("star-with-chord width = %g, want <= 1.5", d.Width)
	}
}

func TestDecomposeAcyclic(t *testing.T) {
	// DecomposeCosted also works on acyclic shapes (the facade never calls it
	// for them, but the invariants must hold).
	h := Path(4)
	d, err := h.DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, h, d)
	if d.Width > 1+1e-9 {
		t.Errorf("path width = %g, want 1", d.Width)
	}
}

func TestDecomposeLargeFallsBackToGreedy(t *testing.T) {
	// A 10-cycle, beyond the permutation reference of FuzzDecompose:
	// the subset DP must still find a width-2 decomposition.
	h := Cycle(10)
	d, err := h.DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, h, d)
	if d.Width > 2+1e-9 {
		t.Errorf("C10 width = %g, want <= 2", d.Width)
	}
}

// TestDecomposeBeyond64Vars: a set holds any number of variables, so a
// 70-cycle with a chord, which the beam over sets searches, decomposes
// structurally and costed, each to width 3 at most and within a second.
func TestDecomposeBeyond64Vars(t *testing.T) {
	h := Cycle(70)
	h.Edges = append(h.Edges, E("C", "A0", "A35"))
	for _, coster := range []BagCoster{nil, nameCoster{}} {
		start := time.Now()
		d, err := h.DecomposeCosted(coster)
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("coster %v: search took %v", coster, took)
		}
		checkDecomposition(t, h, d)
		if d.Width > 3+1e-9 {
			t.Errorf("coster %v: width %g, want <= 3", coster, d.Width)
		}
	}
}

func TestDecomposeDisconnected(t *testing.T) {
	// Two disjoint triangles: one bag per triangle, none spanning both —
	// the join tree links them on the empty key.
	h := New(
		E("R1", "A", "B"), E("R2", "B", "C"), E("R3", "C", "A"),
		E("S1", "X", "Y"), E("S2", "Y", "Z"), E("S3", "Z", "X"),
	)
	for _, coster := range []BagCoster{nil, nameCoster{}} {
		d, err := h.DecomposeCosted(coster)
		if err != nil {
			t.Fatal(err)
		}
		checkDecomposition(t, h, d)
		if got := bagsKey(d.Bags); got != "A,B,C;X,Y,Z" {
			t.Errorf("coster %v: bags %s, want one per triangle", coster, got)
		}
	}
}

func TestFractionalCoverOf(t *testing.T) {
	h := Cycle(4)
	_, rho, err := h.FractionalCoverOf([]string{"A0", "A1"})
	if err != nil {
		t.Fatal(err)
	}
	if rho > 1+1e-9 {
		t.Errorf("cover of one edge's vars = %g, want 1", rho)
	}
	_, rho, err = h.FractionalCoverOf(h.Vars())
	if err != nil {
		t.Fatal(err)
	}
	if rho < 2-1e-9 || rho > 2+1e-9 {
		t.Errorf("cover of all C4 vars = %g, want 2", rho)
	}
}

// BenchmarkDecomposeCosted times the costed search, priced by
// nameCoster, on the benchmark's two generic shapes, the chorded
// 5-cycle and the bowtie, on the 9-cycle with two chords and on a
// 12-cycle with two chords, the largest shape the exact subset DP takes.
func BenchmarkDecomposeCosted(b *testing.B) {
	c12 := Cycle(12)
	c12.Edges = append(c12.Edges, E("C1", "A0", "A6"), E("C2", "A3", "A9"))
	shapes := []struct {
		name string
		h    *Hypergraph
	}{
		{"chorded5", New(E("R1", "A", "B"), E("R2", "B", "C"), E("R3", "C", "D"), E("R4", "D", "E"), E("R5", "E", "A"), E("R6", "B", "E"))},
		{"bowtie", New(E("E1", "A", "B"), E("E2", "B", "C"), E("E3", "C", "A"), E("E4", "A", "D"), E("E5", "D", "E"), E("E6", "E", "A"))},
		{"c9chords", largeShapes()[0].h},
		{"c12chords", c12},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.h.DecomposeCosted(nameCoster{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
