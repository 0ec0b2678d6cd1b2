package main

import (
	"fmt"

	"repro"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/workload"
)

// A fixture is one pinned (query shape, generator parameters) pair. The
// shape, the sizes and the topology (which tuples exist) are constants
// of this file; -seed draws every tuple weight, and with them which
// results rank first and how the priority queues behave. Pinning the
// topology keeps result counts, bag sizes and allocation volumes equal
// across seeds, so that alloc_mb, live_heap_mb and every exact count
// can carry tight bounds; a seed still gives the program an input it
// has not seen, and the same seed gives identical ones.
type fixture struct {
	name  string
	edges []hypergraph.Edge
	rels  []*relation.Relation // aligned with edges
	// star marks a star query whose output is too large to enumerate
	// (star8: ~4e13 results); the oracle then uses the closed form.
	star bool
	// cycle is l for an l-cycle R1(A0,A1),…,Rl(A_{l-1},A0) declared in
	// walk order, 0 for every other shape; the layer replay needs it to
	// call the preparer the facade would pick.
	cycle int
}

// query copies the fixture into a fresh facade Query, the way a user
// hands tuples to the library (Query.Rel copies into a new relation).
func (f *fixture) query() *repro.Query {
	q := repro.NewQuery()
	for i, r := range f.rels {
		q.Rel(r.Name, f.edges[i].Vars, r.Tuples, r.Weights)
	}
	return q
}

func (f *fixture) tuples() int {
	n := 0
	for _, r := range f.rels {
		n += r.Len()
	}
	return n
}

// topologySeed is the fixed seed every fixture's tuples are drawn from.
const topologySeed = 1

// subSeed derives the i-th fixture's generator seed from a run seed
// (one splitmix64 step per fixture, so neighbouring seeds do not share
// streams).
func subSeed(seed uint64, i int) uint64 {
	r := workload.NewRand(seed*0x9e3779b97f4a7c15 + uint64(i))
	return r.Uint64()
}

func fromInstance(name string, inst *workload.Instance) *fixture {
	return &fixture{name: name, edges: inst.H.Edges, rels: inst.Rels}
}

// reweigh replaces every weight of the relations with a uniform draw
// from the fixture's seeded stream.
func (g gen) reweigh(fx int, rels ...*relation.Relation) {
	rng := workload.NewRand(subSeed(g.seed, fx))
	for _, r := range rels {
		for i := range r.Weights {
			r.Weights[i] = rng.Float64()
		}
	}
}

// instance pins an instance's topology and seeds its weights.
func (g gen) instance(name string, fx int, build func(topology uint64) *workload.Instance) *fixture {
	f := fromInstance(name, build(subSeed(topologySeed, fx)))
	g.reweigh(fx, f.rels...)
	return f
}

// graph is a random directed graph with pinned edges and seeded weights
// (one weight per edge: the atoms of a self-join share it).
func (g gen) graph(vertices, edges, fx int) *workload.Graph {
	gr := workload.RandomGraph(g.n(vertices), g.n(edges), uw(), subSeed(topologySeed, fx))
	g.reweigh(fx, gr.Edges)
	return gr
}

// Fixture ids, used as sub-seed indexes: a fixture keeps its stream
// when another one is added or dropped.
const (
	fxPath4 = iota
	fxStar4
	fxC4Deep
	fxTriangle
	fxHubTriangle
	fxC4
	fxC56
	fxChorded5
	fxBowtie
	fxStar8
	fxServeTri
	fxServeOps
)

var uw = workload.UniformWeights

// gen makes fixtures from the run's seed. div is 1 for a real run; the
// smoke test divides every tuple and domain count by it, which keeps
// each shape's join density and shrinks the work.
type gen struct {
	seed uint64
	div  int
}

func (g gen) n(x int) int { return max(2, x/g.div) }

func (g gen) path4() *fixture {
	return g.instance("path4", fxPath4, func(t uint64) *workload.Instance {
		return workload.Path(4, g.n(4000), g.n(800)+1, uw(), t)
	})
}

func (g gen) star4() *fixture {
	return g.instance("star4", fxStar4, func(t uint64) *workload.Instance {
		return workload.Star(4, g.n(2000), g.n(400)+1, uw(), t)
	})
}

func (g gen) cycleOn(name string, l, vertices, edges, fx int) *fixture {
	f := fromInstance(name, workload.CycleQueryOn(g.graph(vertices, edges, fx), l))
	f.cycle = l
	return f
}

// hubTriangle is the three-layer rotor graph of the skew guardrail
// (hub 0 → m left vertices, complete bipartite left → k right, right →
// hub): every one of its 3·m·k triangles is a rotation of (0, l, r), so
// the value 0 owns a third of the join. The structure is fixed; the
// seed draws the weights.
func (g gen) hubTriangle(m, k int) *fixture {
	m, k = g.n(m), g.n(k)
	rng := workload.NewRand(subSeed(g.seed, fxHubTriangle))
	mk := func(name string) *relation.Relation {
		r := relation.New(name, "src", "dst")
		for l := int64(1); l <= int64(m); l++ {
			r.AddWeighted(rng.Float64(), 0, l)
			for rt := int64(m + 1); rt <= int64(m+k); rt++ {
				r.AddWeighted(rng.Float64(), l, rt)
			}
		}
		for rt := int64(m + 1); rt <= int64(m+k); rt++ {
			r.AddWeighted(rng.Float64(), rt, 0)
		}
		return r
	}
	return &fixture{
		name:  "hub_triangle",
		cycle: 3,
		edges: []hypergraph.Edge{hypergraph.E("R", "A", "B"), hypergraph.E("S", "B", "C"), hypergraph.E("T", "C", "A")},
		rels:  []*relation.Relation{mk("R"), mk("S"), mk("T")},
	}
}

// bowtie is two triangles sharing vertex A, six atoms over one edge
// list: the smallest shape that is neither acyclic nor a cycle, so the
// facade routes it through the generic GHD planner.
func (g gen) bowtie(vertices, edges int) *fixture {
	gr := g.graph(vertices, edges, fxBowtie)
	f := &fixture{name: "bowtie"}
	for i, vs := range [][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "D"}, {"D", "E"}, {"E", "A"}} {
		name := fmt.Sprintf("E%d", i+1)
		c := gr.Edges.Clone()
		c.Name = name
		f.edges = append(f.edges, hypergraph.Edge{Name: name, Vars: vs})
		f.rels = append(f.rels, c)
	}
	return f
}

// enumFixtures are the three warm plans of enum_deep.
func (g gen) enumFixtures() []*fixture {
	return []*fixture{g.path4(), g.star4(), g.cycleOn("c4", 4, 500, 8000, fxC4Deep)}
}

// coldFixtures are the eight queries of cold_prepare, one or more per
// queryKind the facade dispatches on: triangle and hub_triangle
// (triangle), c4 (four-cycle, submodular union of three trees), c5 and
// c6 (long cycle, single-tree fan), chorded5 and bowtie (generic GHD),
// star8 (acyclic).
func (g gen) coldFixtures() []*fixture {
	star8 := g.instance("star8", fxStar8, func(t uint64) *workload.Instance {
		return workload.Star(8, g.n(32000), g.n(1600)+1, uw(), t)
	})
	star8.star = true
	return []*fixture{
		g.cycleOn("triangle", 3, 1000, 20000, fxTriangle),
		g.hubTriangle(300, 60),
		g.cycleOn("c4", 4, 1000, 8000, fxC4),
		g.cycleOn("c5", 5, 400, 2000, fxC56),
		g.cycleOn("c6", 6, 400, 2000, fxC56),
		g.instance("chorded5", fxChorded5, func(t uint64) *workload.Instance {
			return workload.SkewedChordedCycle(g.n(2000), g.n(200), 5, 1.1, uw(), t)
		}),
		g.bowtie(400, 4000),
		star8,
	}
}

func fixtureByName(fs []*fixture, name string) *fixture {
	for _, f := range fs {
		if f.name == name {
			return f
		}
	}
	panic("bench: no fixture " + name)
}
