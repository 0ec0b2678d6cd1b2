package decomp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/yannakakis"
)

// GHDAttrs is the canonical output schema of the GHD plans built from
// the given edges: the distinct query variables in sorted order.
func GHDAttrs(edges []hypergraph.Edge) []string {
	return hypergraph.New(edges...).Vars()
}

// Shape is the data-independent half of a plan: which trees of bags the
// query decomposes into and which (filtered) inputs each tree reads —
// see the package comment for the table of shapes. A Shape is immutable.
//
// Only searched bags consult WithOrderChooser (chooser); the canonical
// shapes keep their structural (triangle: pinned) Generic-Join orders,
// the ones the benchmark's layer replay runs.
type Shape struct {
	// Kind names the shape on the wire (PlanStats.Kind): "acyclic",
	// "triangle", "four-cycle", "cycle" or "ghd".
	Kind string
	// Edges are the query's atoms; Build takes its relations in this
	// order.
	Edges []hypergraph.Edge
	// Attrs is the output schema of every plan of this shape.
	Attrs []string
	// Decomposition renders the bags of a searched shape, or of the
	// cycle plan a coster chose (CycleShape), and EstBagSizes carries the
	// cost model's per-bag estimates for them, in Stats.BagSizes order;
	// both are empty for the other shapes, whose Kind says it all.
	Decomposition string
	EstBagSizes   []float64

	trees   []shapeTree
	splits  []split // heavy/light partitions the trees' selections refer to
	chooser bool
}

// shapeTree is one tree of a shape: an atom tree's join tree, or a
// decomposition whose bags are materialised, with the filters applied to
// the inputs its bags read (unlisted edges are read whole) and — for a
// one-bag tree whose shape fixes it — the bag's Generic-Join order.
type shapeTree struct {
	join *hypergraph.JoinTree
	dec  *hypergraph.Decomposition
	sels []sel
	pin  []string
}

// AcyclicShape is the shape of an α-acyclic query: one tree whose bags
// are its atoms, joined as GYO arranges them (hypergraph.BuildJoinTree);
// its schema is the variables in first appearance over the join tree's
// preorder, the order the tree's T-DP emits. ok is false if cyclic.
func AcyclicShape(edges []hypergraph.Edge) (s *Shape, ok bool) {
	tree, ok := hypergraph.New(edges...).BuildJoinTree()
	if !ok {
		return nil, false
	}
	var attrs []string
	for _, u := range tree.Order {
		for _, v := range edges[u].Vars {
			if !slices.Contains(attrs, v) {
				attrs = append(attrs, v)
			}
		}
	}
	return &Shape{Kind: "acyclic", Edges: edges, Attrs: attrs, trees: []shapeTree{{join: tree}}}, true
}

// GHDShape is the shape of an arbitrary full conjunctive query over an
// already-computed generalized hypertree decomposition (so a
// prepare-once facade runs the costed search,
// hypergraph.DecomposeCosted, a single time): one tree, whole inputs,
// output schema GHDAttrs(edges). It accepts every query shape.
func GHDShape(d *hypergraph.Decomposition, edges []hypergraph.Edge) *Shape {
	return &Shape{Kind: "ghd", Edges: edges, Attrs: GHDAttrs(edges), Decomposition: d.String(), EstBagSizes: d.EstBagSizes,
		trees: []shapeTree{{dec: d}}, chooser: true}
}

// OneBag reports whether the whole shape is a single materialised bag —
// the query's full output, materialised by one Generic-Join.
func (s *Shape) OneBag() bool {
	return len(s.trees) == 1 && s.trees[0].dec != nil && len(s.trees[0].dec.Bags) == 1
}

// Epoch is what a shape holds for one epoch of data whatever the
// ranking (Shape.Build). It is immutable; Instantiate may run
// concurrently.
type Epoch struct {
	shape  *Shape
	rels   []*relation.Relation // renamed to their query variables
	heavy  []map[relation.Value]bool
	delta  bool        // built from a predecessor, so its atom trees may patch
	atoms  []*atomTree // per tree; nil for a tree that materialises bags
	tuples int
}

// atomTree is an atom tree's plan and its InstantiateDelta seeds.
type atomTree struct {
	plan    *dp.Plan
	changed []bool
}

// Build does for one epoch of relations (aligned with Edges) what no
// ranking touches: rename them to their query variables, evaluate the
// heavy/light splits, and reduce (bottom-up) and group every atom tree
// (dp.NewPlanDelta). old is the epoch this one succeeds (nil: none) and
// changed flags, per edge, the relations that differ since; an atom
// tree then redoes only the paths they reach. The DeltaStats count the
// atom trees' nodes and regroupings.
func (s *Shape) Build(rels []*relation.Relation, old *Epoch, changed []bool, opts ...PrepareOption) (*Epoch, DeltaStats, error) {
	var ds DeltaStats
	if len(s.Edges) != len(rels) {
		return nil, ds, fmt.Errorf("decomp: %d relations for %d hyperedges", len(rels), len(s.Edges))
	}
	if old != nil && len(changed) != len(s.Edges) {
		return nil, ds, fmt.Errorf("decomp: %d changed flags for %d hyperedges", len(changed), len(s.Edges))
	}
	e := &Epoch{shape: s, rels: make([]*relation.Relation, len(rels)), delta: old != nil, atoms: make([]*atomTree, len(s.trees))}
	for i, edge := range s.Edges {
		if len(edge.Vars) != rels[i].Arity() {
			return nil, ds, fmt.Errorf("decomp: edge %s has %d vars but relation %s arity %d",
				edge.Name, len(edge.Vars), rels[i].Name, rels[i].Arity())
		}
		e.rels[i] = rename(rels[i], edge.Name, edge.Vars...)
	}
	e.heavy = s.heavyValues(e.rels)
	cfg := newPrepCfg(opts)
	for ti, tr := range s.trees {
		if tr.join == nil {
			continue
		}
		var oldPlan *dp.Plan
		if old != nil {
			oldPlan = old.atoms[ti].plan
		}
		q := &yannakakis.Query{Rels: s.inputs(tr, e.rels, e.heavy), H: hypergraph.New(s.Edges...), Tree: tr.join}
		plan, dst, err := dp.NewPlanDelta(q, oldPlan, changed, cfg.dpOpts()...)
		if err != nil {
			return nil, ds, err
		}
		e.atoms[ti] = &atomTree{plan: plan, changed: dst.Changed}
		e.tuples += plan.TotalTuples()
		ds.TreeNodes += dst.Nodes
		ds.TreeRegrouped += dst.Regrouped
	}
	if slices.Contains(e.atoms, nil) {
		for _, r := range rels {
			e.tuples += r.Len()
		}
	}
	return e, ds, nil
}

// Tuples is the input size of one Instantiate: the reduced atoms of the
// atom trees, plus the epoch's relations when a tree materialises bags.
func (e *Epoch) Tuples() int { return e.tuples }

// NumSolutions counts the epoch's answers without enumerating them, as
// the sum over its trees (which partition the output): an atom tree
// off its reduced plan's counts, one artefact per epoch that every
// ranking shares (dp.Plan.NumSolutions); a tree that materialises bags
// off p, this epoch's plan under some ranking. It is -1 when such a
// tree needs p and p is nil, and fails with dp.ErrCountOverflow when the
// sum does not fit an int64.
func (e *Epoch) NumSolutions(p *Plan) (int, error) {
	if p == nil && slices.Contains(e.atoms, nil) {
		return -1, nil
	}
	cum, err := sumCounts(len(e.atoms), func(ti int) (int, error) {
		if p != nil {
			return p.trees[ti].numSolutions()
		}
		return e.atoms[ti].plan.NumSolutions()
	})
	if err != nil {
		return -1, err
	}
	return int(cum[len(cum)-1]), nil
}

// IsEmpty reports whether the epoch has no answers, which holds iff no
// tree has one, without counting: an atom tree has none when its reduced
// root has no rows, a tree that materialises bags when p, this epoch's
// plan under some ranking, holds an empty bag or reduced root for it.
// known is false when such a tree decides and p is nil.
func (e *Epoch) IsEmpty(p *Plan) (empty, known bool) {
	undecided := false
	for ti, a := range e.atoms {
		switch {
		case a == nil && p == nil:
			undecided = true
		case a != nil && !a.plan.Empty(), a == nil && !p.trees[ti].empty():
			return false, true
		}
	}
	return !undecided, !undecided
}

// Instantiate builds the epoch's plan under one ranking aggregate, tree
// by tree, each with the full worker budget: an atom tree's π pass
// (dp.Plan.InstantiateDelta), every other tree's bags materialised and
// compiled into a T-DP (prepareGHD). old is the plan the predecessor
// epoch held for agg (nil: none): atom trees patch π where the delta
// reached, and every tree that materialises bags is rebuilt whole —
// bit-identically either way. The DeltaStats sum the trees'; a rebuilt
// tree reports each of its bags rebuilt and each node redone.
func (e *Epoch) Instantiate(agg ranking.Aggregate, old *Plan, opts ...PrepareOption) (*Plan, DeltaStats, error) {
	var ds DeltaStats
	s := e.shape
	cfg := newPrepCfg(opts)
	if !s.chooser {
		cfg.order = nil
	}
	if !e.delta {
		old = nil // no predecessor to patch from
	}
	p := &Plan{Stats: &Stats{}, agg: agg, width: len(s.Attrs)}
	if len(e.heavy) == 2 {
		p.Stats.HeavyB, p.Stats.HeavyD = len(e.heavy[0]), len(e.heavy[1])
	}
	for ti, tr := range s.trees {
		if at := e.atoms[ti]; at != nil {
			var oldT *dp.TDP
			if old != nil {
				oldT = old.trees[ti].t
			}
			t, rec, err := at.plan.InstantiateDelta(agg, oldT, at.changed, cfg.dpOpts()...)
			if err != nil {
				return nil, ds, err
			}
			p.trees = append(p.trees, &treePlan{t: t})
			ds.TreeNodes += len(t.Nodes)
			ds.TreeRecomputed += rec
			continue
		}
		// The bags of the trees before this one number this tree's, so
		// bag names are unique plan-wide.
		tp, bags, err := s.prepareGHD(cfg, ti, ds.BagsRebuilt, s.inputs(tr, e.rels, e.heavy), agg)
		if err != nil {
			return nil, ds, err
		}
		p.trees = append(p.trees, tp)
		sizes := make([]int, len(bags))
		for i, b := range bags {
			sizes[i] = b.Len()
			p.Stats.TotalMaterialized += b.Len()
		}
		p.Stats.BagSizes = append(p.Stats.BagSizes, sizes)
		ds.BagsRebuilt += len(bags)
		ds.TreeNodes += len(bags)
		ds.TreeRecomputed += len(bags)
	}
	return p, ds, nil
}

// Prepare is Build then Instantiate, from nothing.
func (s *Shape) Prepare(rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	e, _, err := s.Build(rels, nil, nil, opts...)
	if err != nil {
		return nil, err
	}
	p, _, err := e.Instantiate(agg, nil, opts...)
	return p, err
}

// PrepareGHDWith is GHDShape(d, edges).Prepare: every bag is
// materialised with Generic-Join and the acyclic bag tree is handed to
// the any-k T-DP machinery. Output tuples use the canonical schema
// GHDAttrs(edges): all query variables in sorted order.
func PrepareGHDWith(d *hypergraph.Decomposition, edges []hypergraph.Edge, rels []*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	return GHDShape(d, edges).Prepare(rels, agg, opts...)
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
// parallel: the worker budget fans out over the bags first and any
// remainder is spent inside each bag by partitioning the first variable
// of its Generic-Join order.
//
// What holds:
//  1. The tree is bit-identical for any worker count — bag contents and
//     order, join tree, T-DP: each bag lands in its decomposition-order
//     slot.
//  2. Each bag gets a "materialize" span (bag, rows) › "join-order",
//     under the caller's span.
//  3. Bag tasks, bag-tree reduction and grouping, and the π pass all
//     run under the prepare's context; cancellation is checked between
//     bag tasks, intra-bag partitions and tree-node tasks, and inside a
//     bag's Generic-Join wherever its output Builder opens a chunk.
//
// It returns the compiled tree and its bags in decomposition order.
func (s *Shape) prepareGHD(cfg prepCfg, ti, base int, ins []*relation.Relation, agg ranking.Aggregate) (*treePlan, []*relation.Rows, error) {
	bags, orders, err := s.materializeBags(cfg, ti, base, ins, agg)
	if err != nil {
		return nil, nil, err
	}
	tp, err := prepareTree(cfg, base, bags, orders, agg, s.Attrs)
	if err != nil {
		return nil, nil, err
	}
	return tp, bags, nil
}

// bagName names the i'th bag of a plan.
func bagName(i int) string { return "G" + strconv.Itoa(i) }

// materializeBags is prepareGHD's first step: it materialises the bags
// of tree ti and returns them with their schemas, the Generic-Join
// orders they were materialised in, in decomposition order.
func (s *Shape) materializeBags(cfg prepCfg, ti, base int, ins []*relation.Relation, agg ranking.Aggregate) ([]*relation.Rows, [][]string, error) {
	d, pin, edges := s.trees[ti].dec, s.trees[ti].pin, s.Edges

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
			return nil, nil, fmt.Errorf("decomp: edge %s not contained in any bag of %s", edges[ei].Name, d)
		}
	}

	// Fan the worker budget over the bags first; leftover parallelism
	// splits the first variable inside each bag, with the division
	// remainder handed to the first tasks so no requested worker is
	// dropped (4 workers over 3 bags: intra budgets 2,1,1). Each task
	// writes only its own slot, and sizes are read after the barrier.
	bags, orders := make([]*relation.Rows, len(d.Bags)), make([][]string, len(d.Bags))
	bagWorkers := min(cfg.workers, len(bags))
	intraBase, intraRem := 1, 0
	if bagWorkers > 0 {
		intraBase, intraRem = cfg.workers/bagWorkers, cfg.workers%bagWorkers
	}
	err := parallel.ForEach(cfg.ctx, bagWorkers, len(bags), func(bi int) error {
		bctx, bsp := obs.StartSpan(cfg.ctx, "materialize")
		bsp.SetAttr("bag", bagName(base+bi))
		defer bsp.End()
		bagVars := d.Bags[bi]
		atoms, err := bagAtoms(d, bi, bagVars, edges, ins, charged, agg)
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
		if bi < intraRem {
			intra++
		}
		bag, _, err := wcoj.MaterializeParallelHinted(bctx, atoms, order, agg, intra, cfg.hints)
		if err != nil {
			return err
		}
		bsp.SetAttr("rows", strconv.Itoa(bag.Len()))
		bags[bi], orders[bi] = bag, order
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return bags, orders, nil
}

// DeltaStats reports what a Build or Instantiate with a predecessor
// redid, summed over the trees it built: Build's atom trees, or every
// tree of an Instantiate. A tree that materialises bags is always
// rebuilt whole, every bag and every node of it.
type DeltaStats struct {
	// BagsRebuilt counts the bags materialised (Instantiate).
	BagsRebuilt int
	// TreeNodes is the trees' size; TreeRegrouped (Build) and
	// TreeRecomputed (Instantiate) count the nodes whose candidate
	// grouping and π pass had to rerun.
	TreeNodes, TreeRegrouped, TreeRecomputed int
}

// projectionSources picks, for every bag variable not covered by a
// contained relation, the smallest relation holding it (ties broken by
// edge index).
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
// relations, contained filters, and — for the projection sources
// (projectionSources, in order) — deduplicated identity-weight
// projections covering the otherwise-uncovered bag variables.
func bagAtoms(d *hypergraph.Decomposition, bi int, bagVars []string, edges []hypergraph.Edge, qrels []*relation.Relation, charged []int, agg ranking.Aggregate) ([]wcoj.Atom, error) {
	srcs, err := projectionSources(d, bi, bagVars, edges, qrels)
	if err != nil {
		return nil, err
	}
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
