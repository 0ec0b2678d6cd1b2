package hypergraph

import (
	"fmt"

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

// largeShapes are hypergraphs over 9 or 10 variables, more than the
// permutation oracle of FuzzDecompose covers.
func largeShapes() []struct {
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

// TestDecomposeLargePinned pins the structural and costed
// decompositions of largeShapes — a refactor of the search must choose
// exactly these bags — and holds each to the width and estimated cost
// of the plan that the min-degree and min-fill orders and an order beam
// chose before the subset DP replaced them.
func TestDecomposeLargePinned(t *testing.T) {
	want := map[string]struct {
		structural, costed string
		width, cost        float64
	}{
		"9-cycle with two chords": {
			"[[A0 A7 A8] [A5 A6 A7] [A4 A5 A7] [A2 A3 A4] [A0 A2 A4 A7] [A0 A1 A2]] contains [[7 8] [5 6] [4] [2 3] [9 10] [0 1]] width 2 est [] 0",
			"[[A2 A3 A4] [A0 A7 A8] [A5 A6 A7] [A4 A5 A7] [A0 A2 A4 A7] [A0 A1 A2]] contains [[2 3] [7 8] [5 6] [4] [9 10] [0 1]] width 2 est [24 30 60 40 80 60] 294",
			2, 294,
		},
		"3x3 grid": {
			"[[G12 G21 G22] [G11 G12 G20 G21] [G10 G11 G12 G20] [G02 G10 G11 G12] [G01 G02 G10 G11] [G00 G01 G10]] contains [[9 11] [7 8 10] [5 6 7] [4 5 7] [2 3 5] [0 1]] width 2 est [] 0",
			"[[G12 G21 G22] [G01 G02 G12] [G10 G20 G21] [G10 G11 G12 G21] [G01 G10 G11 G12] [G00 G01 G10]] contains [[9 11] [2 4] [6 10] [5 7 8] [3 5 7] [0 1]] width 3 est [24 24 150 360 360 150] 1068",
			3, 1068,
		},
		"K5 with pendants": {
			"[[A B C D E] [C S] [B Q] [A P]] contains [[3 4 5 6 7 8 9 10 11 12] [2] [1] [0]] width 2.5 est [] 0",
			"[[A B C D E] [C S] [B Q] [A P]] contains [[3 4 5 6 7 8 9 10 11 12] [2] [1] [0]] width 2.5 est [720 20 9 4] 753",
			2.5, 753,
		},
	}
	for _, s := range largeShapes() {
		w := want[s.name]
		structural, err := s.h.DecomposeCosted(nil)
		if err != nil {
			t.Fatal(err)
		}
		costed, err := s.h.DecomposeCosted(nameCoster{})
		if err != nil {
			t.Fatal(err)
		}
		if got := pinString(structural); got != w.structural {
			t.Errorf("%s: DecomposeCosted(nil)\n got %s\nwant %s", s.name, got, w.structural)
		}
		if got := pinString(costed); got != w.costed {
			t.Errorf("%s: DecomposeCosted(coster)\n got %s\nwant %s", s.name, got, w.costed)
		}
		if structural.Width > w.width+1e-9 || costed.EstCost > w.cost {
			t.Errorf("%s: width %g, cost %g; the old search reached %g and %g", s.name, structural.Width, costed.EstCost, w.width, w.cost)
		}
	}
}
