package decomp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// GHDAttrs is the canonical output schema of the GHD plans built from
// the given edges: the distinct query variables in sorted order.
func GHDAttrs(edges []hypergraph.Edge) []string {
	return hypergraph.New(edges...).Vars()
}

// Shape is the data-independent half of a cyclic plan: which trees of
// bags the query decomposes into and which (filtered) inputs each tree
// reads — see the package comment for the table of shapes. A Shape is
// immutable and Prepare may be called concurrently, once per ranking
// function and data epoch.
//
// Two policies ride on the shape. memo: a searched GHD's plan retains
// its bags as materialised and its bag tree, so the next Prepare patches
// only what a delta reached. The canonical shapes retain nothing and
// rebuild every bag: the bag tree's reduction copies the rows that
// survive it, so nothing else keeps a bag as materialised alive, and
// retaining them costs about 2.4·10⁶ tuples (~150 MB) on the 5- and
// 6-cycle fans the cold_prepare benchmark keeps resident — to speed up a
// delta no serving workload sends to a cycle. chooser: only searched
// bags consult WithOrderChooser; the canonical shapes keep their
// structural (triangle: pinned) Generic-Join orders, the ones the
// benchmark's layer replay runs.
type Shape struct {
	// Kind names the shape on the wire (PlanStats.Kind): "triangle",
	// "four-cycle", "cycle" or "ghd".
	Kind string
	// Edges are the query's atoms; Prepare takes its relations in this
	// order.
	Edges []hypergraph.Edge
	// Attrs is the output schema of every plan of this shape.
	Attrs []string
	// Decomposition renders the bags of a searched shape and EstBagSizes
	// carries the cost model's per-bag estimates for them, in
	// Stats.BagSizes order; both are empty for the canonical shapes, whose
	// Kind says it all.
	Decomposition string
	EstBagSizes   []float64

	trees   []shapeTree
	splits  []split // heavy/light partitions the trees' selections refer to
	memo    bool
	chooser bool
}

// shapeTree is one tree of a shape: its bags, the filters applied to the
// inputs its bags read (unlisted edges are read whole), and — for a
// one-bag tree whose shape fixes it — the bag's Generic-Join order.
type shapeTree struct {
	dec  *hypergraph.Decomposition
	sels []sel
	pin  []string
}

// GHDShape is the shape of an arbitrary full conjunctive query over an
// already-computed generalized hypertree decomposition (so a
// prepare-once facade runs the structural search, hypergraph.Decompose,
// a single time): one tree, whole inputs, memo kept, output schema
// GHDAttrs(edges). It accepts every query shape; hand-built
// decompositions must be connected (see prepareGHD).
func GHDShape(d *hypergraph.Decomposition, edges []hypergraph.Edge) *Shape {
	return &Shape{Kind: "ghd", Edges: edges, Attrs: GHDAttrs(edges), Decomposition: d.String(), EstBagSizes: d.EstBagSizes,
		trees: []shapeTree{{dec: d}}, memo: true, chooser: true}
}

// OneBag reports whether the whole shape is a single bag — the query's
// full output, materialised by one Generic-Join.
func (s *Shape) OneBag() bool { return len(s.trees) == 1 && len(s.trees[0].dec.Bags) == 1 }

// Prepare compiles the shape over one epoch's relations (aligned with
// Edges) under one ranking aggregate: every tree's inputs are selected,
// its bags materialised and its bag tree built by prepareGHD, in tree
// order, each tree with the full worker budget. old is the plan a
// previous Prepare of this shape returned for the same aggregate (nil:
// none) and changed flags, per edge, the relations that differ since; a
// shape that keeps a memo re-materialises only the bags the delta
// reached, every other shape ignores old. The result is bit-identical
// whichever way it was reached. The DeltaStats sum the trees'.
func (s *Shape) Prepare(rels []*relation.Relation, agg ranking.Aggregate, old *Plan, changed []bool, opts ...PrepareOption) (*Plan, DeltaStats, error) {
	var ds DeltaStats
	cfg := newPrepCfg(opts)
	if !s.memo {
		old = nil
	}
	if !s.chooser {
		cfg.order = nil
	}
	if len(s.Edges) != len(rels) {
		return nil, ds, fmt.Errorf("decomp: %d relations for %d hyperedges", len(rels), len(s.Edges))
	}
	if old != nil && len(changed) != len(s.Edges) {
		return nil, ds, fmt.Errorf("decomp: %d changed flags for %d hyperedges", len(changed), len(s.Edges))
	}
	// Rename every relation to its query variables.
	qrels := make([]*relation.Relation, len(rels))
	for i, e := range s.Edges {
		if len(e.Vars) != rels[i].Arity() {
			return nil, ds, fmt.Errorf("decomp: edge %s has %d vars but relation %s arity %d",
				e.Name, len(e.Vars), rels[i].Name, rels[i].Arity())
		}
		qrels[i] = rename(rels[i], e.Name, e.Vars...)
	}
	heavy := s.heavyValues(qrels)
	p := &Plan{Stats: &Stats{}, agg: agg, shape: s}
	if len(heavy) == 2 {
		p.Stats.HeavyB, p.Stats.HeavyD = len(heavy[0]), len(heavy[1])
	}
	for ti, tr := range s.trees {
		tp, memo, tds, err := s.prepareGHD(cfg, ti, ds.Bags, s.inputs(tr, qrels, heavy), agg, old, changed)
		if err != nil {
			return nil, ds, err
		}
		p.trees = append(p.trees, tp)
		if s.memo {
			p.ghd = memo
		}
		sizes := make([]int, len(memo.bags))
		for i, b := range memo.bags {
			sizes[i] = b.Len()
			p.Stats.TotalMaterialized += b.Len()
		}
		p.Stats.BagSizes = append(p.Stats.BagSizes, sizes)
		ds.Bags += tds.Bags
		ds.BagsRebuilt += tds.BagsRebuilt
		ds.TreeNodes += tds.TreeNodes
		ds.TreeRegrouped += tds.TreeRegrouped
		ds.TreeRecomputed += tds.TreeRecomputed
	}
	return p, ds, nil
}

// PrepareGHDWith is GHDShape(d, edges).Prepare with no predecessor: every
// bag is materialised with Generic-Join and the acyclic bag tree is
// handed to the any-k T-DP machinery. Output tuples use the canonical
// schema GHDAttrs(edges): all query variables in sorted order.
func PrepareGHDWith(d *hypergraph.Decomposition, edges []hypergraph.Edge, rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	p, _, err := GHDShape(d, edges).Prepare(rels, agg, nil, nil, opts...)
	return p, err
}

// prepareGHD prepares tree ti of the shape — the only code that
// materialises a bag. ins are the tree's (selected, renamed) input
// relations in edge order, and base numbers its first bag among the
// plan's, so bag names are unique plan-wide. Each bag is materialised by
// wcoj.MaterializeParallelHinted over three kinds of atoms:
//
//   - charged atoms: relations whose hyperedge is assigned to this bag.
//     Every relation is charged to exactly one bag (the first bag, in
//     decomposition order, that contains its variables), so its tuple
//     weights — and, under bag semantics, its duplicate multiplicities —
//     enter the ranking aggregate exactly once across the whole tree.
//   - filter atoms: relations contained in the bag but charged
//     elsewhere. They join with identity weights and deduplicated
//     tuples, so they prune the bag without re-counting weight or
//     multiplicity. (The canonical cycle shapes have none: each of their
//     edges lies in exactly one bag of its tree.)
//   - projection atoms: when a bag variable (introduced by a fill edge
//     of the elimination order, or the fan's A0 in a middle bag) is not
//     covered by any contained relation, the smallest relation holding
//     that variable contributes its deduplicated, identity-weighted
//     projection onto the bag.
//
// Every relation's join predicate is enforced in its charged bag, and
// the bag tree's running-intersection property propagates it to the
// final result, so the ranked enumeration over the bag tree is exact.
//
// Bags are mutually independent, so WithWorkers(n) materialises them in
// parallel: the worker budget fans out over the bags on the work list
// first and any remainder is spent inside each bag by partitioning the
// first variable of its Generic-Join order.
//
// old is the predecessor (nil: none), a plan of the same shape whose
// memo records each bag and the edges its materialisation read; changed
// flags the edges whose relation differs since. A bag then stays off the
// work list — and shares the old epoch's relation — iff the edges
// feeding it (charged, filter, projection source) are the same as before
// and none of them changed; the dependency set is recomputed under the
// new sizes because a delta to one relation can steal another bag's
// projection-source pick. The bag tree is patched the same way
// (prepareTree).
//
// What holds for both inputs:
//  1. Without a predecessor no comparison work is done: every bag goes
//     on the work list behind a nil check, and that list is the only
//     extra allocation.
//  2. The tree is bit-identical on both inputs, and for any worker
//     count — bag contents and order, join tree, T-DP: each bag lands in
//     its decomposition-order slot. Without a predecessor the DeltaStats
//     report every bag rebuilt and every tree node redone.
//  3. With a predecessor the prepare runs under a "ghd-delta" span
//     (attributes bags_rebuilt, bags_reused); without one its spans
//     hang off the caller's. Either way each bag on the work list gets
//     a "materialize" span (bag, rows) › "join-order".
//  4. Bag tasks, bag-tree reduction and grouping, and the π pass all
//     run under the prepare's context; cancellation is checked between
//     bag tasks, intra-bag partitions and tree-node tasks, and inside a
//     bag's Generic-Join wherever its output Builder opens a chunk.
func (s *Shape) prepareGHD(cfg prepCfg, ti, base int, ins []*relation.Relation, agg ranking.Aggregate, old *Plan, changed []bool) (*treePlan, *ghdMemo, DeltaStats, error) {
	var ds DeltaStats
	d, pin, edges := s.trees[ti].dec, s.trees[ti].pin, s.Edges
	var sp *obs.Span
	var oldTree *treePlan
	if old != nil {
		cfg.ctx, sp = obs.StartSpan(cfg.ctx, "ghd-delta")
		defer sp.End()
		oldTree = old.trees[ti]
	}

	// Charge each edge to the first bag that contains it.
	charged := make([]int, len(edges))
	for i := range charged {
		charged[i] = -1
	}
	for bi, contained := range d.Contains {
		for _, ei := range contained {
			if charged[ei] < 0 {
				charged[ei] = bi
			}
		}
	}
	for ei, bi := range charged {
		if bi < 0 {
			return nil, nil, ds, fmt.Errorf("decomp: edge %s not contained in any bag of %s", edges[ei].Name, d)
		}
	}

	// Each bag's dependency set, and from it the work list.
	deps := make([][]int, len(d.Bags))
	bags := make([]*relation.Relation, len(d.Bags))
	rebuilt := make([]bool, len(d.Bags))
	rebuild := make([]int, 0, len(d.Bags))
	for bi, bagVars := range d.Bags {
		srcs, err := projectionSources(d, bi, bagVars, edges, ins)
		if err != nil {
			return nil, nil, ds, err
		}
		deps[bi] = append(append([]int(nil), d.Contains[bi]...), srcs...)
		if old != nil && bagClean(deps[bi], old.ghd.deps[bi], changed) {
			bags[bi] = old.ghd.bags[bi]
			continue
		}
		rebuilt[bi] = true
		rebuild = append(rebuild, bi)
	}

	// Fan the worker budget over the bags on the work list first;
	// leftover parallelism splits the first variable inside each bag,
	// with the division remainder handed to the first tasks so no
	// requested worker is dropped (4 workers over 3 bags: intra budgets
	// 2,1,1). Each task writes only its own slot, and sizes are read
	// after the barrier.
	bagWorkers := cfg.workers
	if bagWorkers > len(rebuild) {
		bagWorkers = len(rebuild)
	}
	intraBase, intraRem := 1, 0
	if bagWorkers > 0 {
		intraBase = cfg.workers / bagWorkers
		intraRem = cfg.workers % bagWorkers
	}
	err := parallel.ForEach(cfg.ctx, bagWorkers, len(rebuild), func(i int) error {
		bi := rebuild[i]
		name := "G" + strconv.Itoa(base+bi)
		bctx, bsp := obs.StartSpan(cfg.ctx, "materialize")
		bsp.SetAttr("bag", name)
		defer bsp.End()
		bagVars := d.Bags[bi]
		atoms, err := bagAtoms(d, bi, bagVars, edges, ins, charged, deps[bi][len(d.Contains[bi]):], agg)
		if err != nil {
			return err
		}
		_, osp := obs.StartSpan(bctx, "join-order")
		order := pin
		if order == nil {
			order = cfg.chooseOrder(atoms)
		}
		osp.End()
		if len(order) != len(bagVars) {
			return fmt.Errorf("decomp: bag %v atoms cover %d of %d variables", bagVars, len(order), len(bagVars))
		}
		intra := intraBase
		if i < intraRem {
			intra++
		}
		bag, _, err := wcoj.MaterializeParallelHinted(bctx, atoms, order, agg, intra, cfg.hints)
		if err != nil {
			return err
		}
		bag.Name = name
		bsp.SetAttr("rows", strconv.Itoa(bag.Len()))
		bags[bi] = bag
		return nil
	})
	if err != nil {
		return nil, nil, ds, err
	}

	// GYO arranges the bags into a join tree. The bag set must be
	// connected (the T-DP layer rejects cartesian tree edges);
	// hypergraph.Decompose guarantees this by merging one bag per
	// component of a disconnected query, so hand-built decompositions
	// passed here must be connected too. A bag is "changed" iff it was
	// re-materialised; the reducer still proves content-identical
	// rebuilds clean.
	tp, ds, err := prepareTree(cfg, bags, agg, s.Attrs, oldTree, rebuilt)
	if err != nil {
		return nil, nil, ds, err
	}
	ds.Bags, ds.BagsRebuilt = len(bags), len(rebuild)
	if old != nil {
		sp.SetAttr("bags_rebuilt", strconv.Itoa(ds.BagsRebuilt))
		sp.SetAttr("bags_reused", strconv.Itoa(ds.Bags-ds.BagsRebuilt))
	}
	return tp, &ghdMemo{deps: deps, bags: bags}, ds, nil
}

// ghdMemo records what prepareGHD built for one tree: each bag's
// relation and the edge indices each bag's materialisation read
// (charged relations, filters, and projection sources) — what the next
// prepare compares against to decide which bags to re-materialise.
type ghdMemo struct {
	deps [][]int
	bags []*relation.Relation
}

// DeltaStats reports the reuse a prepare with a predecessor achieved,
// summed over the plan's trees. A one-bag tree reports one bag and one
// tree node, both redone iff an input relation changed.
type DeltaStats struct {
	// Bags is the decomposition size; BagsRebuilt counts the bags
	// re-materialised because an input relation changed (or the
	// size-dependent projection-source choice shifted).
	Bags, BagsRebuilt int
	// TreeNodes is the bag-tree size; TreeRegrouped / TreeRecomputed
	// count the nodes whose candidate grouping / π pass had to rerun.
	TreeNodes, TreeRegrouped, TreeRecomputed int
}

// bagClean reports whether a bag's materialisation would read exactly
// what the old epoch's did: the same dependency edges, none of them
// changed.
func bagClean(deps, oldDeps []int, changed []bool) bool {
	if len(deps) != len(oldDeps) {
		return false
	}
	for i, ei := range deps {
		if ei != oldDeps[i] || changed[ei] {
			return false
		}
	}
	return true
}

// projectionSources picks, for every bag variable not covered by a
// contained relation, the smallest relation holding it (ties broken by
// edge index). The choice depends only on the post-rename relation
// sizes, so the delta path can recompute it cheaply and compare against
// the recorded dependency set.
func projectionSources(d *hypergraph.Decomposition, bi int, bagVars []string, edges []hypergraph.Edge, qrels []*relation.Relation) ([]int, error) {
	covered := make(map[string]bool, len(bagVars))
	for _, ei := range d.Contains[bi] {
		for _, v := range edges[ei].Vars {
			covered[v] = true
		}
	}
	var srcs []int
	for _, v := range bagVars {
		if covered[v] {
			continue
		}
		best := -1
		for ei, e := range edges {
			holds := false
			for _, ev := range e.Vars {
				if ev == v {
					holds = true
					break
				}
			}
			if holds && (best < 0 || qrels[ei].Len() < qrels[best].Len()) {
				best = ei
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("decomp: bag variable %s not held by any relation", v)
		}
		srcs = append(srcs, best)
		for _, sv := range intersectSorted(edges[best].Vars, bagVars) {
			covered[sv] = true
		}
	}
	return srcs, nil
}

// bagAtoms assembles the Generic-Join atoms for one bag: charged
// relations, contained filters, and — for the precomputed projection
// sources (projectionSources, in order) — deduplicated identity-weight
// projections covering the otherwise-uncovered bag variables.
func bagAtoms(d *hypergraph.Decomposition, bi int, bagVars []string, edges []hypergraph.Edge, qrels []*relation.Relation, charged []int, srcs []int, agg ranking.Aggregate) ([]wcoj.Atom, error) {
	var atoms []wcoj.Atom
	for _, ei := range d.Contains[bi] {
		if charged[ei] == bi {
			atoms = append(atoms, wcoj.Atom{Rel: qrels[ei], Vars: edges[ei].Vars})
		} else {
			atoms = append(atoms, wcoj.Atom{Rel: filterCopy(qrels[ei], agg), Vars: edges[ei].Vars})
		}
	}
	for _, ei := range srcs {
		shared := intersectSorted(edges[ei].Vars, bagVars)
		proj, err := qrels[ei].Project(shared...)
		if err != nil {
			return nil, err
		}
		atoms = append(atoms, wcoj.Atom{Rel: filterCopy(proj, agg), Vars: shared})
	}
	return atoms, nil
}

// filterCopy returns a deduplicated, identity-weighted copy of r: a pure
// join filter that contributes no weight and exactly one row per
// distinct tuple.
func filterCopy(r *relation.Relation, agg ranking.Aggregate) *relation.Relation {
	out := relation.New(r.Name+"~", r.Attrs...)
	id := agg.Identity()
	out.Tuples = slices.Clone(r.Tuples)
	out.Weights = make([]float64, len(r.Tuples))
	for i := range out.Weights {
		out.Weights[i] = id
	}
	out.Dedup()
	return out
}

// intersectSorted returns the elements of a that occur in b, sorted.
func intersectSorted(a, b []string) []string {
	set := make(map[string]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	var out []string
	for _, v := range a {
		if set[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
