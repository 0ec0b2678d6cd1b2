package workload

import (
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// ZipfRelation generates a binary relation with n tuples whose columns
// are drawn independently over [0, domain): column X from a Zipf
// distribution with exponent sX, column Y with exponent sY, either
// falling back to uniform when its exponent is 0. The skewed columns
// produce the heavy join values (a few hub values carrying a large
// fraction of the rows) that separate cost-based planning from the
// structural heuristics.
func ZipfRelation(name string, n, domain int, sX, sY float64, w WeightFn, seed uint64) *relation.Relation {
	rng := NewRand(seed)
	var zx, zy *Zipf
	if sX > 0 {
		zx = NewZipf(rng, sX, domain)
	}
	if sY > 0 {
		zy = NewZipf(rng, sY, domain)
	}
	draw := func(z *Zipf) relation.Value {
		if z != nil {
			return relation.Value(z.Next())
		}
		return relation.Value(rng.Intn(domain))
	}
	r := relation.New(name, "X", "Y")
	for t := 0; t < n; t++ {
		x := draw(zx)
		y := draw(zy)
		r.AddWeighted(w(rng), x, y)
	}
	return r
}

// SkewedChordedCycle builds the chorded 5-cycle query
//
//	R1(A,B), R2(B,C), R3(C,D), R4(D,E), R5(E,A), R6(B,E)
//
// over data skewed at variable B: R1 and R2 draw their B column from
// Zipf(s) while every other column is uniform, and R2 carries fanout×n
// tuples against n everywhere else. The shape's generalized hypertree
// decompositions tie on width, so the structural search falls back to
// its fewer-bags tie-break — which happens to charge the heavy,
// high-fanout B values into one large bag. The exact counts of each
// column's most frequent values see the skew and steer the costed
// search to a decomposition whose bags stay small, making this the
// canonical workload for the optimizer-on/off comparison
// (cmd/anyk-bench, CI).
func SkewedChordedCycle(n, domain, fanout int, s float64, w WeightFn, seed uint64) *Instance {
	h := hypergraph.New(
		hypergraph.E("R1", "A", "B"),
		hypergraph.E("R2", "B", "C"),
		hypergraph.E("R3", "C", "D"),
		hypergraph.E("R4", "D", "E"),
		hypergraph.E("R5", "E", "A"),
		hypergraph.E("R6", "B", "E"),
	)
	rels := []*relation.Relation{
		ZipfRelation("R1", n, domain, 0, s, w, seed+1),        // R1(A,B): B skewed
		ZipfRelation("R2", n*fanout, domain, s, 0, w, seed+2), // R2(B,C): B skewed, high fanout
		ZipfRelation("R3", n, domain, 0, 0, w, seed+3),
		ZipfRelation("R4", n, domain, 0, 0, w, seed+4),
		ZipfRelation("R5", n, domain, 0, 0, w, seed+5),
		ZipfRelation("R6", n, domain, 0, 0, w, seed+6),
	}
	return &Instance{H: h, Rels: rels}
}
