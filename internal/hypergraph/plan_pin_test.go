package hypergraph

import (
	"fmt"
	"slices"
	"testing"
)

// nameCoster prices a bag by a fixed function of its variables' names —
// larger bags cost more, and bags of one size differ — so the costed
// search's choices are reproducible without data.
type nameCoster struct{}

func (nameCoster) BagCost(bag []string) float64 {
	c := 1.0
	for _, v := range bag {
		c *= 2 + float64(v[len(v)-1]%5)
	}
	return c
}

// greedyShapes are hypergraphs over more than maxExhaustiveVars
// variables, so DecomposeCosted takes the greedy orders (and, with a
// coster, the beam) rather than every permutation.
func greedyShapes() []struct {
	name string
	h    *Hypergraph
} {
	c9 := Cycle(9)
	c9.Edges = append(c9.Edges, E("C1", "A0", "A4"), E("C2", "A2", "A7"))
	var grid []Edge
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			v := fmt.Sprintf("G%d%d", r, c)
			if c < 2 {
				grid = append(grid, E(fmt.Sprintf("H%d%d", r, c), v, fmt.Sprintf("G%d%d", r, c+1)))
			}
			if r < 2 {
				grid = append(grid, E(fmt.Sprintf("V%d%d", r, c), v, fmt.Sprintf("G%d%d", r+1, c)))
			}
		}
	}
	k5 := []Edge{E("PA", "A", "P"), E("PB", "B", "Q"), E("PC", "C", "S")}
	ks := []string{"A", "B", "C", "D", "E"}
	for i := range ks {
		for j := i + 1; j < len(ks); j++ {
			k5 = append(k5, E("K"+ks[i]+ks[j], ks[i], ks[j]))
		}
	}
	return []struct {
		name string
		h    *Hypergraph
	}{
		{"9-cycle with two chords", c9},
		{"3x3 grid", New(grid...)},
		{"K5 with pendants", New(k5...)},
	}
}

func pinString(d *Decomposition) string {
	return fmt.Sprintf("%v contains %v width %.9g est %v %v", d.Bags, d.Contains, d.Width, d.EstBagSizes, d.EstCost)
}

// TestDecomposeGreedyPinned pins the greedy orders and the structural
// and costed decompositions on the shapes beyond the exhaustive search:
// a refactor of the search must choose exactly these bags.
func TestDecomposeGreedyPinned(t *testing.T) {
	want := map[string][4]string{
		"9-cycle with two chords": {
			"[A1 A3 A5 A6 A8 A0 A2 A4 A7]",
			"[A1 A3 A5 A6 A2 A4 A0 A7 A8]",
			"[[A0 A1 A2] [A2 A3 A4] [A4 A5 A6] [A4 A6 A7] [A0 A2 A4 A7] [A0 A7 A8]] contains [[0 1] [2 3] [4 5] [6] [9 10] [7 8]] width 2 est [] 0",
			"[[A0 A1 A2] [A2 A3 A4] [A0 A7 A8] [A5 A6 A7] [A4 A5 A7] [A0 A2 A4 A7]] contains [[0 1] [2 3] [7 8] [5 6] [4] [9 10]] width 2 est [60 24 30 60 40 80] 294",
		},
		"3x3 grid": {
			"[G00 G02 G20 G22 G01 G10 G11 G12 G21]",
			"[G00 G02 G01 G20 G10 G11 G12 G21 G22]",
			"[[G00 G01 G10] [G01 G02 G12] [G01 G10 G11 G12] [G10 G20 G21] [G10 G11 G12 G21] [G12 G21 G22]] contains [[0 1] [2 4] [3 5 7] [6 10] [5 7 8] [9 11]] width 3 est [] 0",
			"[[G01 G02 G12] [G12 G21 G22] [G00 G01 G10] [G10 G20 G21] [G01 G10 G11 G12] [G10 G11 G12 G21]] contains [[2 4] [9 11] [0 1] [6 10] [3 5 7] [5 7 8]] width 3 est [24 24 150 150 360 360] 1068",
		},
		"K5 with pendants": {
			"[P Q S A B C D E]",
			"[D E P A Q B C S]",
			"[[A B C D E] [A P] [B Q] [C S]] contains [[3 4 5 6 7 8 9 10 11 12] [0] [1] [2]] width 2.5 est [] 0",
			"[[A P] [B Q] [C S] [A B C D E]] contains [[0] [1] [2] [3 4 5 6 7 8 9 10 11 12]] width 2.5 est [4 9 20 720] 753",
		},
	}
	for _, s := range greedyShapes() {
		w := want[s.name]
		minDeg, minFill := s.h.greedyOrder(false), s.h.greedyOrder(true)
		structural, err := s.h.DecomposeCosted(nil)
		if err != nil {
			t.Fatal(err)
		}
		costed, err := s.h.DecomposeCosted(nameCoster{})
		if err != nil {
			t.Fatal(err)
		}
		got := [4]string{fmt.Sprint(minDeg), fmt.Sprint(minFill), pinString(structural), pinString(costed)}
		for i, what := range []string{"min-degree order", "min-fill order", "DecomposeCosted(nil)", "DecomposeCosted(coster)"} {
			if got[i] != w[i] {
				t.Errorf("%s: %s\n got %s\nwant %s", s.name, what, got[i], w[i])
			}
		}
		if !slices.Equal(s.h.greedyOrder(true), minFill) {
			t.Errorf("%s: min-fill order not deterministic", s.name)
		}
	}
}
