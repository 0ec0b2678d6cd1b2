// Package decomp evaluates *cyclic* join queries by decomposing them
// into acyclic queries over materialised bags, then running any-k over
// each tree and merging the ranked streams (§3–§4 of the tutorial):
//
//   - PrepareTriangle: a single bag materialised by Generic-Join in
//     O(n^1.5) (the AGM bound), enumerated lazily in ranking order.
//   - PrepareFourCycleSingleTree: the fractional-hypertree-width-2 plan
//     — two bags R1⋈R2 and R3⋈R4, each up to Θ(n²). This is the plan the
//     tutorial says is *suboptimal*.
//   - PrepareFourCycleSubmodular: the submodular-width-1.5 plan — three
//     trees selected by the heaviness of the join values at B and D,
//     with every bag both sized and *computable* in O(n^1.5) (each bag
//     join drives from a filtered side and probes an index, so its cost
//     is input + output). The three cases partition the output, so the
//     ranked union needs no deduplication.
//   - PrepareCycleSingleTree: the fhtw-2 "fan" of l−2 bags for an
//     l-cycle.
//   - PrepareGHDWith / PrepareGHDDelta: every other shape, over a
//     generalized hypertree decomposition whose bags Generic-Join
//     materialises. The two are one preparer (prepareGHD) without and
//     with a predecessor plan: given one, only the bags a data delta
//     reached are re-materialised.
//
// Every plan but the triangle's hands its bags to prepareTree, the one
// place a bag tree is compiled into a T-DP (internal/dp), under the
// prepare's context. The canonical constructors always build from
// nothing; only GHD plans keep the memo a later prepare patches from.
//
// Every Prepare* constructor accepts PrepareOptions: WithWorkers(n)
// materialises the plan's mutually independent bags on a bounded
// worker pool (bag-level fan-out first, leftover workers partitioning
// the first variable inside each Generic-Join bag via
// wcoj.MaterializeParallel), and WithContext(ctx) makes the whole
// prepare cancelable — between bag tasks and partitions, and between
// the node tasks of the bag tree's build. Parallel prepares are
// bit-identical to sequential ones — same bag contents and order, same
// Stats — see docs/ARCHITECTURE.md for the invariants.
package decomp

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/heap"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/yannakakis"
)

// prepCfg collects the per-prepare options: how many workers materialise
// bags, which context can cancel the prepare phase, and an optional
// data-aware chooser for Generic-Join variable orders.
type prepCfg struct {
	ctx     context.Context
	workers int
	order   func([]wcoj.Atom) ([]string, error)
	hints   wcoj.SkewHints
}

// PrepareOption configures one Prepare* call. The defaults are fully
// sequential materialisation under context.Background().
type PrepareOption func(*prepCfg)

// WithWorkers sets how many workers materialise the plan's bags: the
// independent bags of a shape fan out first (one task per bag), and any
// leftover parallelism is spent inside each Generic-Join bag by
// partitioning the first variable of its order
// (wcoj.MaterializeParallel). n <= 0 selects GOMAXPROCS. Whatever the
// worker count, the prepared plan is bit-identical to the sequential
// one: same bag relations in the same order, same Stats.
func WithWorkers(n int) PrepareOption {
	return func(c *prepCfg) { c.workers = parallel.Degree(n) }
}

// WithContext attaches a cancellation context to the prepare phase.
// Cancellation is checked between bag tasks, between intra-bag
// partitions and between the node tasks of the bag tree's build; a
// canceled prepare returns ctx.Err() and no plan.
func WithContext(ctx context.Context) PrepareOption {
	return func(c *prepCfg) { c.ctx = ctx }
}

// WithOrderChooser installs a data-aware Generic-Join variable-order
// chooser (e.g. catalog.ChooseOrder) consulted per bag by the GHD
// planner. The chooser must return an order over exactly the variables
// of the atoms it is given; when it errors or returns a different
// variable set, the bag silently falls back to the structural
// wcoj.SuggestOrder heuristic, so a chooser can never make a prepare
// fail. The per-bag order only affects materialisation cost, not
// results: bags are sorted into canonical attribute order before the
// join tree is built.
func WithOrderChooser(f func([]wcoj.Atom) ([]string, error)) PrepareOption {
	return func(c *prepCfg) { c.order = f }
}

// WithSkewHints installs catalog heavy-hitter hints (e.g. built from
// catalog.CostModel.HeavyValues) consulted by the intra-bag parallel
// materialisation: hinted values of a bag's first order variable are
// split heavy/light at a lower threshold, so one skewed value is
// subdivided across workers instead of pinned to one. Hints never
// change results or Stats — parallel prepares stay bit-identical to
// sequential ones — only the partition shapes.
func WithSkewHints(h wcoj.SkewHints) PrepareOption {
	return func(c *prepCfg) { c.hints = h }
}

// chooseOrder resolves one bag's variable order: the configured chooser
// when it yields a valid order over the atoms' variables, otherwise the
// structural heuristic.
func (c *prepCfg) chooseOrder(atoms []wcoj.Atom) []string {
	fallback := wcoj.SuggestOrder(atoms)
	if c.order == nil {
		return fallback
	}
	order, err := c.order(atoms)
	if err != nil || len(order) != len(fallback) {
		return fallback
	}
	want := make(map[string]bool, len(fallback))
	for _, v := range fallback {
		want[v] = true
	}
	for _, v := range order {
		if !want[v] {
			return fallback
		}
		delete(want, v)
	}
	return order
}

func newPrepCfg(opts []PrepareOption) prepCfg {
	//anykvet:allow ctxplumb -- documented option default; callers attach cancellation via WithContext
	cfg := prepCfg{ctx: context.Background(), workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// buildBags materialises independent bags across cfg.workers workers,
// each under a "materialize" span labelled with the bag's name and row
// count. Slot i of the result is task i's bag, so bag order — and
// everything derived from it: join-tree construction, Stats — is
// deterministic; sizes must only be read after buildBags returns (the
// barrier).
func buildBags(cfg prepCfg, tasks ...func() (*relation.Relation, error)) ([]*relation.Relation, error) {
	bags := make([]*relation.Relation, len(tasks))
	err := parallel.ForEach(cfg.ctx, cfg.workers, len(tasks), func(i int) error {
		_, sp := obs.StartSpan(cfg.ctx, "materialize")
		defer sp.End()
		b, err := tasks[i]()
		if err != nil {
			return err
		}
		sp.SetAttr("bag", b.Name)
		sp.SetAttr("rows", strconv.Itoa(b.Len()))
		bags[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bags, nil
}

// Plan is a compiled decomposition: every bag is materialised and every
// tree's T-DP is built, so Run only has to spin up iterators. A Plan is
// bound to one ranking aggregate (bag weights combine under it) but is
// variant-agnostic and safe for concurrent Run calls — the prepared
// half of the facade's prepare-once / execute-many API.
type Plan struct {
	// Stats reports the decomposition work done at prepare time.
	Stats *Stats

	agg ranking.Aggregate
	// Exactly one of bag / trees is set: the triangle materialises a
	// single Generic-Join bag enumerated in sorted order; every other
	// shape unions one or more acyclic trees.
	bag   *relation.Relation
	trees []*treePlan
	// ghd memoises what prepareGHD built so the next prepare can rebuild
	// only the bags whose input relations changed; nil for the canonical
	// (triangle / 4-cycle / l-cycle) constructors.
	ghd *ghdMemo
}

// Run starts one ranked enumeration over the compiled decomposition.
// The context cancels the returned iterator (and, for multi-tree plans,
// the per-tree iterators under the merge). The variant selects the
// any-k algorithm for tree-based plans; the triangle's single sorted
// bag ignores it.
func (p *Plan) Run(ctx context.Context, v core.Variant) (core.Iterator, error) {
	if p.bag != nil {
		return newSortedIter(ctx, p.bag, p.agg), nil
	}
	its := make([]core.Iterator, len(p.trees))
	for i, tp := range p.trees {
		it, err := tp.run(ctx, v)
		if err != nil {
			return nil, err
		}
		its[i] = it
	}
	if len(its) == 1 {
		return its[0], nil
	}
	// The trees partition the output, so the ranked union needs no
	// deduplication.
	return core.Merge(ctx, p.agg, false, its...), nil
}

// Stats reports the decomposition work: what was materialised where.
// Parallel prepares (WithWorkers) aggregate Stats only after every bag
// task has finished, so the reported values are identical to a
// sequential prepare's.
type Stats struct {
	// BagSizes holds the materialised bag sizes: one inner slice per
	// tree of the plan, one entry per bag of that tree, in tree order.
	// (Earlier versions packed fixed [2]int pairs, which misreported
	// shapes with more than two bags per tree — the l-cycle fan plan and
	// GHD bag trees.)
	BagSizes [][]int
	// HeavyB and HeavyD count heavy join values.
	HeavyB, HeavyD int
	// TotalMaterialized sums all bag sizes.
	TotalMaterialized int
}

// FourCycleAttrs is the canonical output schema of the 4-cycle
// constructors: the iterators yield tuples ordered (A, B, C, D).
var FourCycleAttrs = []string{"A", "B", "C", "D"}

// TriangleAttrs is the canonical output schema of PrepareTriangle.
var TriangleAttrs = []string{"A", "B", "C"}

// PrepareTriangle compiles the triangle query R1(A,B) ⋈ R2(B,C) ⋈
// R3(C,A): all triangles are materialised with Generic-Join (O(n^1.5)
// by AGM); Run then enumerates them lazily in ranking order via an
// incremental heap — so time-to-first is O(n^1.5) and each further
// result costs O(log n), matching the claim of §1 for the 3-cycle.
func PrepareTriangle(rels [3]*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	cfg := newPrepCfg(opts)
	atoms := []wcoj.Atom{
		{Rel: rels[0], Vars: []string{"A", "B"}},
		{Rel: rels[1], Vars: []string{"B", "C"}},
		{Rel: rels[2], Vars: []string{"C", "A"}},
	}
	// A single bag: all parallelism goes intra-bag, partitioning A.
	bctx, bsp := obs.StartSpan(cfg.ctx, "materialize")
	bsp.SetAttr("bag", "triangle")
	out, _, err := wcoj.MaterializeParallelHinted(bctx, atoms, TriangleAttrs, agg, cfg.workers, cfg.hints)
	bsp.End()
	if err != nil {
		return nil, err
	}
	st := &Stats{BagSizes: [][]int{{out.Len()}}, TotalMaterialized: out.Len()}
	return &Plan{Stats: st, agg: agg, bag: out}, nil
}

// sortedIter enumerates a materialised relation in weight order using an
// incremental heap sort (O(r) build, O(log r) per result).
type sortedIter struct {
	*core.Lifecycle
	rel *relation.Relation
	inc *heap.IncSort[int32]
	k   int
}

func newSortedIter(ctx context.Context, rel *relation.Relation, agg ranking.Aggregate) core.Iterator {
	rows := make([]int32, rel.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return &sortedIter{
		Lifecycle: core.NewLifecycle(ctx),
		rel:       rel,
		inc:       heap.NewIncSort(func(a, b int32) bool { return agg.Less(rel.Weights[a], rel.Weights[b]) }, rows),
	}
}

func (s *sortedIter) Next() (core.Result, bool) {
	if !s.Proceed() {
		return core.Result{}, false
	}
	defer s.End()
	row, ok := s.inc.Get(s.k)
	if !ok {
		s.Exhaust()
		return core.Result{}, false
	}
	s.k++
	return core.Result{Tuple: s.rel.Tuples[row], Weight: s.rel.Weights[row]}, true
}

// projectIter reorders result tuples into a canonical attribute order.
// Err and Close delegate to the inner iterator.
type projectIter struct {
	inner core.Iterator
	perm  []int // output position i takes inner tuple[perm[i]]
}

func (p *projectIter) Next() (core.Result, bool) {
	r, ok := p.inner.Next()
	if !ok {
		return core.Result{}, false
	}
	out := make(relation.Tuple, len(p.perm))
	for i, c := range p.perm {
		out[i] = r.Tuple[c]
	}
	return core.Result{Tuple: out, Weight: r.Weight}, true
}

func (p *projectIter) Err() error   { return p.inner.Err() }
func (p *projectIter) Close() error { return p.inner.Close() }

// treePlan is one compiled acyclic tree of a decomposition: its T-DP,
// the aggregate-independent plan it was instantiated from (kept so a
// later prepare can patch instead of rebuild), plus the permutation
// normalising output tuples to the canonical attribute order.
type treePlan struct {
	t    *dp.TDP
	plan *dp.Plan
	perm []int
}

// prepareTree builds the acyclic query over the given bags (GYO finds
// the join tree) and compiles its T-DP — the one place a bag tree is
// built. old is the predecessor tree over the same bag layout (nil:
// none) and changed flags the bags re-materialised since; dp patches
// from it what the delta did not reach and reports the reuse in the
// Tree* fields of the returned DeltaStats. Reduction, grouping and the
// π pass all run under the prepare's context. They run sequentially:
// the level-parallel sweeps buy nothing on a bag tree of a handful of
// nodes, so the prepare's workers are spent on the bags alone.
func prepareTree(cfg prepCfg, bags []*relation.Relation, agg ranking.Aggregate, canonAttrs []string, old *treePlan, changed []bool) (*treePlan, DeltaStats, error) {
	var ds DeltaStats
	q, err := bagQuery(bags)
	if err != nil {
		return nil, ds, err
	}
	var oldPlan *dp.Plan
	var oldT *dp.TDP
	if old != nil {
		oldPlan, oldT = old.plan, old.t
	}
	p, dst, err := dp.NewPlanDelta(q, oldPlan, changed, dp.WithContext(cfg.ctx))
	if err != nil {
		return nil, ds, err
	}
	t, recomputed, err := p.InstantiateDelta(agg, oldT, dst.Changed, dp.WithContext(cfg.ctx))
	if err != nil {
		return nil, ds, err
	}
	perm, err := canonPerm(t, canonAttrs)
	if err != nil {
		return nil, ds, err
	}
	ds = DeltaStats{TreeNodes: dst.Nodes, TreeRegrouped: dst.Regrouped, TreeRecomputed: recomputed}
	return &treePlan{t: t, plan: p, perm: perm}, ds, nil
}

// bagQuery builds the acyclic query over materialised bags.
func bagQuery(bags []*relation.Relation) (*yannakakis.Query, error) {
	edges := make([]hypergraph.Edge, len(bags))
	for i, b := range bags {
		edges[i] = hypergraph.Edge{Name: b.Name, Vars: b.Attrs}
	}
	return yannakakis.NewQuery(hypergraph.New(edges...), bags)
}

// canonPerm maps the tree's output schema onto the canonical one.
func canonPerm(t *dp.TDP, canonAttrs []string) ([]int, error) {
	perm := make([]int, len(canonAttrs))
	for i, a := range canonAttrs {
		found := -1
		for j, b := range t.OutAttrs {
			if a == b {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("decomp: attribute %s missing from tree output %v", a, t.OutAttrs)
		}
		perm[i] = found
	}
	return perm, nil
}

// run starts one any-k enumeration over the tree's compiled T-DP.
func (tp *treePlan) run(ctx context.Context, v core.Variant) (core.Iterator, error) {
	it, err := core.New(ctx, tp.t, v)
	if err != nil {
		return nil, err
	}
	return &projectIter{inner: it, perm: tp.perm}, nil
}

// joinBags materialises the natural join of left and right (on their
// shared attribute names) by driving from left and probing a hash index
// on right — cost O(|left| + |output|). The output schema is outAttrs.
func joinBags(name string, left, right *relation.Relation, outAttrs []string, agg ranking.Aggregate) (*relation.Relation, error) {
	shared := left.SharedAttrs(right)
	if len(shared) == 0 {
		return nil, fmt.Errorf("decomp: bags %s/%s share no attributes", left.Name, right.Name)
	}
	ridx := relation.MustIndex(right, shared...)
	lCols, err := left.AttrIndexes(shared)
	if err != nil {
		return nil, err
	}
	type src struct {
		fromLeft bool
		col      int
	}
	srcs := make([]src, len(outAttrs))
	for i, a := range outAttrs {
		if c := left.AttrIndex(a); c >= 0 {
			srcs[i] = src{fromLeft: true, col: c}
		} else if c := right.AttrIndex(a); c >= 0 {
			srcs[i] = src{fromLeft: false, col: c}
		} else {
			return nil, fmt.Errorf("decomp: output attribute %s not found", a)
		}
	}
	out := relation.New(name, outAttrs...)
	key := make([]relation.Value, len(lCols))
	for li, lt := range left.Tuples {
		for k, c := range lCols {
			key[k] = lt[c]
		}
		for _, ri := range ridx.Lookup(key) {
			rt := right.Tuples[ri]
			tup := make(relation.Tuple, len(srcs))
			for i, s := range srcs {
				if s.fromLeft {
					tup[i] = lt[s.col]
				} else {
					tup[i] = rt[s.col]
				}
			}
			out.AddTuple(tup, agg.Combine(left.Weights[li], right.Weights[ri]))
		}
	}
	return out, nil
}

// rename returns a view of r with attributes renamed (tuples shared).
func rename(r *relation.Relation, name string, attrs ...string) *relation.Relation {
	out := relation.New(name, attrs...)
	out.Tuples = r.Tuples
	out.Weights = r.Weights
	return out
}

// PrepareFourCycleSingleTree compiles the 4-cycle query
// R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D) ⋈ R4(D,A) with the fhtw-2 single-tree
// plan: bags W1(A,B,C) = R1⋈R2 and W2(A,C,D) = R3⋈R4, each up to Θ(n²).
// Output tuples are ordered (A,B,C,D).
func PrepareFourCycleSingleTree(rels [4]*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	cfg := newPrepCfg(opts)
	r1 := rename(rels[0], "R1", "A", "B")
	r2 := rename(rels[1], "R2", "B", "C")
	r3 := rename(rels[2], "R3", "C", "D")
	r4 := rename(rels[3], "R4", "D", "A")
	bags, err := buildBags(cfg,
		func() (*relation.Relation, error) { return joinBags("W1", r1, r2, []string{"A", "B", "C"}, agg) },
		func() (*relation.Relation, error) { return joinBags("W2", r3, r4, []string{"A", "C", "D"}, agg) },
	)
	if err != nil {
		return nil, err
	}
	tp, _, err := prepareTree(cfg, bags, agg, FourCycleAttrs, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Plan{Stats: singleTreeStats(bags), agg: agg, trees: []*treePlan{tp}}, nil
}

// FourCycleSingleTree is the one-shot form of PrepareFourCycleSingleTree
// + Run. The context cancels the returned iterator.
func FourCycleSingleTree(ctx context.Context, rels [4]*relation.Relation, agg ranking.Aggregate, v core.Variant, opts ...PrepareOption) (core.Iterator, *Stats, error) {
	p, err := PrepareFourCycleSingleTree(rels, agg, opts...)
	if err != nil {
		return nil, nil, err
	}
	it, err := p.Run(ctx, v)
	if err != nil {
		return nil, nil, err
	}
	return it, p.Stats, nil
}

// PrepareFourCycleSubmodular compiles the same 4-cycle query with the
// submodular-width-1.5 plan. Let Δ2 = √|R2| and Δ4 = √|R4|; b is heavy
// iff its fanout in R2 exceeds Δ2, d heavy iff its fanout in R4 exceeds
// Δ4 (so at most √|R2| resp. √|R4| heavy values exist). Three disjoint
// cases, each an acyclic 2-bag tree whose bags are driven from the
// filtered side so that construction cost = input + output:
//
//	T1 (b light ∧ d light): W1(A,B,C) = R1 ⋈ σ_lightB R2   ≤ |R1|·Δ2
//	                        W2(A,C,D) = R3 ⋈ σ_lightD R4   ≤ |R3|·Δ4
//	T2 (b heavy):           V1(B,C,D) = σ_heavyB R2 ⋈ R3   ≤ √|R2|·|R3|
//	                        V2(A,B,D) = σ_heavyB R1 ⋈ R4   ≤ √|R2|·|R4|
//	T3 (b light ∧ d heavy): U1(D,A,B) = σ_heavyD R4 ⋈ σ_lightB R1
//	                        U2(B,C,D) = σ_heavyD R3' ⋈ σ_lightB R2
//
// where σ_heavyD R3' filters R3 tuples whose D value is heavy (per-heavy-d
// bound √|R4|·|R2|). The output predicates (heaviness of the result's b
// and d values) partition the 4-cycle output, so the ranked union of the
// three trees is exact without deduplication. Output tuples are ordered
// (A,B,C,D).
func PrepareFourCycleSubmodular(rels [4]*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	cfg := newPrepCfg(opts)
	r1 := rename(rels[0], "R1", "A", "B")
	r2 := rename(rels[1], "R2", "B", "C")
	r3 := rename(rels[2], "R3", "C", "D")
	r4 := rename(rels[3], "R4", "D", "A")

	deg2 := fanout(r2, "B")
	deg4 := fanout(r4, "D")
	d2 := int(math.Sqrt(float64(r2.Len())))
	d4 := int(math.Sqrt(float64(r4.Len())))
	heavyB := func(b relation.Value) bool { return deg2[b] > d2 }
	heavyD := func(d relation.Value) bool { return deg4[d] > d4 }

	st := &Stats{}
	for b := range deg2 {
		if heavyB(b) {
			st.HeavyB++
		}
	}
	for d := range deg4 {
		if heavyD(d) {
			st.HeavyD++
		}
	}

	sel := func(r *relation.Relation, name string, col int, keep func(relation.Value) bool) *relation.Relation {
		out := r.Select(func(t relation.Tuple, _ float64) bool { return keep(t[col]) })
		out.Name = name
		return out
	}
	not := func(f func(relation.Value) bool) func(relation.Value) bool {
		return func(v relation.Value) bool { return !f(v) }
	}

	lightR2 := sel(r2, "R2l", 0, not(heavyB)) // B is column 0 of R2(B,C)
	heavyR2 := sel(r2, "R2h", 0, heavyB)
	lightR4 := sel(r4, "R4l", 0, not(heavyD)) // D is column 0 of R4(D,A)
	heavyR1 := sel(r1, "R1h", 1, heavyB)      // B is column 1 of R1(A,B)
	lightR1 := sel(r1, "R1l", 1, not(heavyB))
	heavyR4 := sel(r4, "R4h", 0, heavyD)
	heavyR3 := sel(r3, "R3h", 1, heavyD) // D is column 1 of R3(C,D)

	// The six bags of the three trees are independent of each other:
	//   T1 (b light ∧ d light): W1, W2
	//   T2 (b heavy):           V1(B,C,D) ⋈ V2(A,B,D) — share {B,D},
	//                           C only in V1, A only in V2: valid tree.
	//   T3 (b light ∧ d heavy): U1(D,A,B) ⋈ U2(B,C,D) — share {B,D},
	//                           A only in U1, C only in U2: valid tree.
	bags, err := buildBags(cfg,
		func() (*relation.Relation, error) { return joinBags("W1", r1, lightR2, []string{"A", "B", "C"}, agg) },
		func() (*relation.Relation, error) { return joinBags("W2", r3, lightR4, []string{"A", "C", "D"}, agg) },
		func() (*relation.Relation, error) { return joinBags("V1", heavyR2, r3, []string{"B", "C", "D"}, agg) },
		func() (*relation.Relation, error) { return joinBags("V2", heavyR1, r4, []string{"A", "B", "D"}, agg) },
		func() (*relation.Relation, error) {
			return joinBags("U1", heavyR4, lightR1, []string{"D", "A", "B"}, agg)
		},
		func() (*relation.Relation, error) {
			return joinBags("U2", heavyR3, lightR2, []string{"B", "C", "D"}, agg)
		},
	)
	if err != nil {
		return nil, err
	}
	trees := make([]*treePlan, 3)
	err = parallel.ForEach(cfg.ctx, cfg.workers, 3, func(ti int) error {
		tp, _, err := prepareTree(cfg, []*relation.Relation{bags[2*ti], bags[2*ti+1]}, agg, FourCycleAttrs, nil, nil)
		trees[ti] = tp
		return err
	})
	if err != nil {
		return nil, err
	}

	st.BagSizes = [][]int{
		{bags[0].Len(), bags[1].Len()},
		{bags[2].Len(), bags[3].Len()},
		{bags[4].Len(), bags[5].Len()},
	}
	for _, bs := range st.BagSizes {
		for _, n := range bs {
			st.TotalMaterialized += n
		}
	}
	return &Plan{Stats: st, agg: agg, trees: trees}, nil
}

// FourCycleSubmodular is the one-shot form of
// PrepareFourCycleSubmodular + Run. The context cancels the returned
// iterator.
func FourCycleSubmodular(ctx context.Context, rels [4]*relation.Relation, agg ranking.Aggregate, v core.Variant, opts ...PrepareOption) (core.Iterator, *Stats, error) {
	p, err := PrepareFourCycleSubmodular(rels, agg, opts...)
	if err != nil {
		return nil, nil, err
	}
	it, err := p.Run(ctx, v)
	if err != nil {
		return nil, nil, err
	}
	return it, p.Stats, nil
}

// fanout counts tuples per value of attr.
func fanout(r *relation.Relation, attr string) map[relation.Value]int {
	c := r.AttrIndex(attr)
	m := make(map[relation.Value]int)
	for _, t := range r.Tuples {
		m[t[c]]++
	}
	return m
}
