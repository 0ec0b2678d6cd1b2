// Package decomp plans every full join query the way §3–§4 of the
// tutorial describe: decompose the query into one *or more* trees of
// bags, run any-k over each tree, and merge the ranked streams. A Shape
// is that recipe, fixed before any data is read — a list of trees, each
// a decomposition (its bags) plus a selection of the input relations it
// reads. An acyclic query is the degenerate case: one tree whose bags
// are its atoms, so nothing is materialised.
//
//	shape (Kind)   trees  decomposition of each tree         input selection
//	acyclic        1      the atoms (GYO join tree)          whole relations
//	triangle       1      {A,B,C}                            whole relations
//	four-cycle     3      {A,B,C} {A,C,D}                    R1, R2ˡ, R3, R4ˡ
//	                      {B,C,D} {A,B,D}                    R1ʰ, R2ʰ, R3, R4
//	                      {A,B,D} {B,C,D}                    R1ˡ, R2ˡ, R3ʰ, R4ʰ
//	cycle (ℓ ≥ 5)  1      fan {A0,A_i,A_{i+1}}, i = 1..ℓ−2   whole relations
//	                      or one bag {A0,...,A_{ℓ−1}}
//	ghd            1      searched (DecomposeCosted)         whole relations
//
// ˡ/ʰ keep the rows whose B value (R1, R2) or D value (R3, R4) is
// light/heavy; the three cases partition the output and every bag is
// O(n^1.5) — the submodular-width plan (submodularShape), against the
// Θ(n²) two-bag fan over the whole relations that the tutorial calls
// suboptimal (PrepareFourCycleSingleTree). A longer cycle's two rows
// are priced by a BagCoster: the fan at the sum of its bags' costs, the
// one bag — the triangle's construction generalised, its Generic-Join
// order pinned to the walk — at its own, and the strictly cheaper wins.
// AcyclicShape takes the atom tree, CycleShape picks the row for a cycle
// length (the fan for ℓ ≥ 5 when it has no coster), GHDShape wraps a
// searched decomposition, and the Prepare* constructors are adapters
// that name one fixed row.
//
// A prepare has two steps, split the way internal/dp splits its own:
// Shape.Build per data epoch, for what no ranking touches (an atom
// tree's reduction and grouping among it), and Epoch.Instantiate per
// ranking — an atom tree's π pass, and every other tree handed to
// prepareGHD, the one place a bag is materialised (its weights folded
// under the ranking) and the only caller of prepareTree, the one place a
// bag tree is compiled into a T-DP. A tree of a single materialised bag
// needs no T-DP: it is enumerated in sorted order straight off the bag.
// A data delta patches an atom tree where it reached (dp.NewPlanDelta,
// dp.Plan.InstantiateDelta) and rebuilds every tree of materialised
// bags; a plan keeps of such a tree only what Run enumerates.
//
// Every prepare accepts PrepareOptions — WithWorkers(n) for a bounded
// worker pool, WithContext(ctx) to cancel it — and a parallel prepare is
// bit-identical to a sequential one: same bag contents and order, same
// Stats (see docs/ARCHITECTURE.md for the invariants).
package decomp

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/heap"
	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/yannakakis"
)

// prepCfg collects the per-prepare options: how many workers run it,
// which context can cancel the prepare phase, and an optional
// data-aware chooser for Generic-Join variable orders.
type prepCfg struct {
	ctx     context.Context
	workers int
	order   func([]wcoj.Atom) ([]string, error)
	hints   wcoj.SkewHints
}

// PrepareOption configures one Build, Instantiate or Prepare* call. The
// defaults are a fully sequential prepare under context.Background().
type PrepareOption func(*prepCfg)

// WithWorkers sets how many workers run the prepare: the independent
// bags of a tree fan out first (one task per bag), and any leftover
// parallelism is spent inside each bag by partitioning the first
// variable of its Generic-Join order (wcoj.MaterializeParallelHinted);
// an atom tree's T-DP build (reduction, grouping, π pass) fans its
// levels out on the same count. n <= 0 selects GOMAXPROCS. Whatever the
// worker count, the prepared plan is bit-identical to the sequential
// one: same bag relations in the same order, same Stats.
func WithWorkers(n int) PrepareOption {
	return func(c *prepCfg) { c.workers = parallel.Degree(n) }
}

// WithContext attaches a cancellation context to the prepare phase.
// Cancellation is checked between bag tasks, between intra-bag
// partitions, inside a bag every few thousand results (whatever its
// worker budget) and between the node tasks of a tree's build; a
// canceled prepare returns ctx.Err() and no plan.
func WithContext(ctx context.Context) PrepareOption {
	return func(c *prepCfg) { c.ctx = ctx }
}

// WithOrderChooser installs a data-aware Generic-Join variable-order
// chooser (e.g. catalog.ChooseOrder) consulted per bag of a searched
// GHD; the canonical cycle shapes keep their structural orders and
// ignore it. The chooser must return an order over exactly the variables
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

// dpOpts hands the prepare's context and workers on to an atom tree's
// T-DP build.
func (c *prepCfg) dpOpts() []dp.Option {
	return []dp.Option{dp.WithContext(c.ctx), dp.WithWorkers(c.workers)}
}

func newPrepCfg(opts []PrepareOption) prepCfg {
	cfg := prepCfg{ctx: context.Background(), workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Plan is one epoch's shape compiled under one ranking aggregate: every
// tree's T-DP is built (its bags materialised first, unless they are
// the atoms), so Run only has to spin up iterators. A Plan is bound to
// its aggregate but is variant-agnostic and safe for concurrent Run
// calls — the per-ranking half of the facade's prepare-once /
// execute-many API.
type Plan struct {
	// Stats reports the decomposition work done at prepare time.
	Stats *Stats

	agg   ranking.Aggregate
	trees []*treePlan
	width int // the arity of the plan's schema
}

// Run starts one ranked enumeration over the compiled plan. The context
// cancels the returned iterator (and, for multi-tree plans, the
// per-tree iterators under the merge). The variant selects the any-k
// algorithm for every tree with a T-DP; a tree of one materialised bag
// (the triangle, a one-bag GHD) is a single sorted relation and ignores
// it. A one-tree plan returns its tree's iterator itself.
func (p *Plan) Run(ctx context.Context, v core.Variant) (core.Iterator, error) {
	if len(p.trees) == 1 {
		return p.trees[0].run(ctx, p.agg, v)
	}
	its := make([]core.Iterator, len(p.trees))
	for i, tp := range p.trees {
		it, err := tp.run(ctx, p.agg, v)
		if err != nil {
			return nil, err
		}
		its[i] = it
	}
	// The trees partition the output, so the ranked union needs no
	// deduplication.
	return core.Merge(ctx, p.agg, its...), nil
}

// Sample draws n results uniformly at random, with replacement, from the
// results Run enumerates (bag semantics: a result is one combination of
// rows), each with its tuple in the plan's schema — one the caller owns
// — and its weight under the plan's ranking. It picks a tree in
// proportion to its count, then a row of a one-bag tree uniformly, or a
// solution of a T-DP by exact-count descent (dp.TDP.Draw), so no draw
// is rejected. The counts are built by their first reader; one that
// overflows an int64 fails every call with dp.ErrCountOverflow. An empty
// plan draws nothing, and a canceled ctx returns the draws so far with
// ctx.Err().
func (p *Plan) Sample(ctx context.Context, n int, r *rand.Rand) ([]core.Result, error) {
	cum, err := sumCounts(len(p.trees), func(ti int) (int, error) { return p.trees[ti].numSolutions() })
	if err != nil {
		return nil, err
	}
	if n <= 0 || cum[len(cum)-1] == 0 {
		return nil, nil
	}
	width, rows := p.width, []int32(nil)
	buf := make([]relation.Value, n*width)
	out := make([]core.Result, 0, n)
	for i := 0; i < n; i++ {
		if i%512 == 0 {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		// Result x of the plan lies in the first tree whose prefix
		// exceeds x.
		x := r.Int64N(cum[len(cum)-1])
		ti, _ := slices.BinarySearch(cum, x+1)
		tp, tuple := p.trees[ti], relation.Tuple(buf[i*width:(i+1)*width:(i+1)*width])
		var w float64
		if tp.t != nil {
			if len(rows) < len(tp.t.Nodes) {
				rows = make([]int32, len(tp.t.Nodes))
			}
			tp.t.Draw(r, rows)
			tp.t.EmitInto(tuple, rows)
			w = tp.t.SolutionWeight(rows)
		} else {
			// x less the earlier trees' results is uniform over the bag.
			row := x
			if ti > 0 {
				row -= cum[ti-1]
			}
			src := tp.bag.Tuples[row]
			if tp.perm == nil {
				copy(tuple, src)
			} else {
				for j, c := range tp.perm {
					tuple[j] = src[c]
				}
			}
			w = tp.bag.Weights[row]
		}
		out = append(out, core.Result{Tuple: tuple, Weight: w})
	}
	return out, nil
}

// sumCounts returns the inclusive prefix sums of n counts, count(i)
// the i'th, failing with dp.ErrCountOverflow when their sum does not
// fit an int64.
func sumCounts(n int, count func(i int) (int, error)) ([]int64, error) {
	cum := make([]int64, n)
	total := int64(0)
	for i := range cum {
		c, err := count(i)
		if err == nil && int64(c) > math.MaxInt64-total {
			err = dp.ErrCountOverflow
		}
		if err != nil {
			return nil, err
		}
		total += int64(c)
		cum[i] = total
	}
	return cum, nil
}

// Stats reports the decomposition work: what was materialised where.
// Parallel prepares (WithWorkers) aggregate Stats only after every bag
// task has finished, so the reported values are identical to a
// sequential prepare's. Stats describe bags as multisets: the row order
// *inside* a bag is Generic-Join's (lexicographic in the bag's variable
// order) and is not part of the contract.
type Stats struct {
	// BagSizes holds the materialised bag sizes: one inner slice per
	// tree of the plan, one entry per bag of that tree, in tree order.
	BagSizes [][]int
	// HeavyB and HeavyD count the heavy join values of the submodular
	// 4-cycle's two heavy/light splits; 0 for every other shape.
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
// by AGM) into the one bag {A,B,C}; Run then enumerates them lazily in
// ranking order via an incremental heap — so time-to-first is O(n^1.5)
// and each further result costs O(log n), matching the claim of §1 for
// the 3-cycle.
func PrepareTriangle(rels [3]*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	return prepareCycle(fanShape, TriangleAttrs, rels[:], agg, opts)
}

// sortedIter enumerates a materialised relation in weight order: rank
// by rank off the bag's shared incremental sort (treePlan.sorted), which
// the first Run builds in O(r) and every Run extends by O(log r) a rank
// it is the first to ask for. perm maps the bag's schema onto the plan's
// (output position i takes the bag's column perm[i]) and each result is
// permuted into out; with no perm, a result's tuple is the bag's own.
type sortedIter struct {
	*core.Lifecycle
	rel   *relation.Relation
	ranks *heap.Ranked
	perm  []int
	out   relation.Tuple
	k     int
}

func (s *sortedIter) Next() (core.Result, bool) {
	if !s.Proceed() {
		return core.Result{}, false
	}
	row, ok := s.ranks.Get(s.k)
	if !ok {
		s.Exhaust()
		return core.Result{}, false
	}
	s.k++
	tuple := s.rel.Tuples[row]
	if s.perm != nil {
		if s.out == nil {
			s.out = make(relation.Tuple, len(s.perm))
		}
		for i, c := range s.perm {
			s.out[i] = tuple[c]
		}
		tuple = s.out
	}
	return core.Result{Tuple: tuple, Weight: s.rel.Weights[row]}, true
}

// treePlan is one compiled tree of a plan. An atom tree, or a tree of
// two or more bags, holds its T-DP, which emits in the plan's schema; a
// tree of one materialised bag holds just the bag, which Run enumerates
// in sorted order, and perm, which maps the bag's schema onto the plan's
// (nil when they agree). sorted is the bag's row ids in ranking order,
// sorted as far as some Run has read and shared by every Run: the tree
// holds it weakly and each of its iterators strongly.
type treePlan struct {
	bag    *relation.Relation
	t      *dp.TDP
	perm   []int
	sorted dp.Memo[heap.Ranked]
}

// prepareTree compiles one tree of materialised bags — the one place a
// bag tree is built. Two or more bags become the acyclic query over them
// (GYO finds the join tree), which is fully reduced before its T-DP is
// built on the reduced bags: a bag tree is never patched, so it has no
// use for the bottom-up rows an atom tree keeps as its next delta's
// predecessor, and rows the top-down sweep removes (a leaf bag is often
// mostly dangling) do not stay resident. The dp.Plan the T-DP is
// instantiated from is dropped too. Reduction, grouping and the π pass
// all run under the prepare's context. They run sequentially: the
// level-parallel sweeps buy nothing on a bag tree of a handful of nodes,
// so the prepare's workers are spent on the bags alone. A single bag is
// already the query's full output and needs no reduction, no grouping
// and no π pass.
func prepareTree(cfg prepCfg, bags []*relation.Relation, agg ranking.Aggregate, canonAttrs []string) (*treePlan, error) {
	if len(bags) == 1 {
		perm, err := canonPerm(bags[0].Attrs, canonAttrs)
		return &treePlan{bag: bags[0], perm: perm}, err
	}
	q, err := bagQuery(bags)
	if err != nil {
		return nil, err
	}
	reduced, err := q.FullReduceWith(cfg.ctx, 1)
	if err != nil {
		return nil, err
	}
	q.Rels = reduced
	p, err := dp.NewPlan(q, dp.WithContext(cfg.ctx))
	if err != nil {
		return nil, err
	}
	t, err := p.Instantiate(agg, dp.WithContext(cfg.ctx))
	if err != nil {
		return nil, err
	}
	if err := t.Reorder(canonAttrs); err != nil {
		return nil, err
	}
	return &treePlan{t: t}, nil
}

// bagQuery builds the acyclic query over materialised bags.
func bagQuery(bags []*relation.Relation) (*yannakakis.Query, error) {
	edges := make([]hypergraph.Edge, len(bags))
	for i, b := range bags {
		edges[i] = hypergraph.Edge{Name: b.Name, Vars: b.Attrs}
	}
	return yannakakis.NewQuery(hypergraph.New(edges...), bags)
}

// canonPerm maps a bag's schema onto the canonical one; nil when the two
// already agree.
func canonPerm(have, canonAttrs []string) ([]int, error) {
	perm := make([]int, len(canonAttrs))
	identity := len(have) == len(canonAttrs)
	for i, a := range canonAttrs {
		if perm[i] = slices.Index(have, a); perm[i] < 0 {
			return nil, fmt.Errorf("decomp: attribute %s missing from tree output %v", a, have)
		}
		identity = identity && perm[i] == i
	}
	if identity {
		return nil, nil
	}
	return perm, nil
}

// empty reports whether the tree has no result: its bag, or its T-DP's
// reduced root, has no rows.
func (tp *treePlan) empty() bool {
	if tp.t == nil {
		return tp.bag.Len() == 0
	}
	return tp.t.Empty()
}

// numSolutions is the tree's result count: its bag's size, or its T-DP's.
func (tp *treePlan) numSolutions() (int, error) {
	if tp.t == nil {
		return tp.bag.Len(), nil
	}
	return tp.t.NumSolutions()
}

// run starts one enumeration over the tree: any-k over its T-DP, or the
// sorted scan of its only bag.
func (tp *treePlan) run(ctx context.Context, agg ranking.Aggregate, v core.Variant) (core.Iterator, error) {
	if bag := tp.bag; bag != nil {
		ranks := tp.sorted.Get(func() *heap.Ranked {
			rows := make([]int32, bag.Len())
			for i := range rows {
				rows[i] = int32(i)
			}
			return heap.SharedIncSort(bag.Weights, agg.Desc(), rows)
		})
		return &sortedIter{Lifecycle: core.NewLifecycle(ctx), rel: bag, ranks: ranks, perm: tp.perm}, nil
	}
	return core.New(ctx, tp.t, v)
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
// plan: bags {A,B,C} = R1⋈R2 and {A,C,D} = R3⋈R4, each up to Θ(n²) —
// the fan for l = 4. Output tuples are ordered (A,B,C,D).
func PrepareFourCycleSingleTree(rels [4]*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	return prepareCycle(fanShape, FourCycleAttrs, rels[:], agg, opts)
}

// FourCycleSingleTree is the one-shot form of PrepareFourCycleSingleTree
// + Run. The context cancels the returned iterator.
func FourCycleSingleTree(ctx context.Context, rels [4]*relation.Relation, agg ranking.Aggregate, v core.Variant, opts ...PrepareOption) (core.Iterator, *Stats, error) {
	p, err := PrepareFourCycleSingleTree(rels, agg, opts...)
	return runOnce(ctx, v, p, err)
}

// runOnce starts the one enumeration of a one-shot constructor.
func runOnce(ctx context.Context, v core.Variant, p *Plan, err error) (core.Iterator, *Stats, error) {
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
// submodular-width-1.5 plan (submodularShape): three disjoint cases,
// each an acyclic 2-bag tree over heavy/light-filtered inputs with every
// bag O(n^1.5), merged into one ranked stream. Output tuples are ordered
// (A,B,C,D).
func PrepareFourCycleSubmodular(rels [4]*relation.Relation, agg ranking.Aggregate, opts ...PrepareOption) (*Plan, error) {
	return prepareCycle(submodularShape, FourCycleAttrs, rels[:], agg, opts)
}

// FourCycleSubmodular is the one-shot form of
// PrepareFourCycleSubmodular + Run. The context cancels the returned
// iterator.
func FourCycleSubmodular(ctx context.Context, rels [4]*relation.Relation, agg ranking.Aggregate, v core.Variant, opts ...PrepareOption) (core.Iterator, *Stats, error) {
	p, err := PrepareFourCycleSubmodular(rels, agg, opts...)
	return runOnce(ctx, v, p, err)
}
