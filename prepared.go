package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
)

// ErrClosed is reported by Iterator.Err after Close terminates
// enumeration before it was exhausted.
var ErrClosed = core.ErrClosed

// Prepared is a compiled query: hypergraph analysis, acyclicity/cycle
// detection, and the choice of the query's decomposition run once at
// Compile time, and the resulting plan is reused by every Run. What no
// ranking touches — the reduced, grouped atoms of an acyclic query — is
// built per epoch; the per-ranking physical artefacts — π weights, and
// for cyclic queries the materialised bags they are computed over — are
// built on the first Run with each ranking function and cached on the
// handle, so thousands of top-k requests with different k, ranking
// functions, or algorithm variants share one compilation.
//
// A handle is epoch-versioned: ApplyDelta installs a new epoch of
// prepared state for updated input data, patching the previous epoch's
// artefacts incrementally instead of recompiling. Everything structural
// — the query shape, join tree, chosen decomposition, output schema —
// is fixed at Compile time and shared by every epoch; only the data-
// dependent artefacts (reduced relations, groupings, π weights, bags,
// statistics-derived sizes) advance.
//
// A Prepared handle is safe for concurrent Run/TopK/Count/IsEmpty/
// Sample/ApplyDelta calls; the iterators it returns are not. Runs
// concurrent with an ApplyDelta see either the old or the new epoch,
// atomically; iterators already running keep enumerating their epoch's
// state to completion.
type Prepared struct {
	fp string // Query.Fingerprint, computed once at Compile

	// srcEdges retains the validated query atoms (hyperedges) in
	// declaration order — the epoch-independent half of the query; each
	// epoch's planState carries the srcRels aligned with them.
	srcEdges []hypergraph.Edge

	// shape is the decomposition the query compiled to — the tree of its
	// atoms if it is acyclic, a closed-form shape for its cycle length
	// (for ℓ ≥ 5 the fan or one bag, whichever the cost model prices
	// cheaper), or the GHD the costed search found. It is chosen once;
	// every epoch builds its ranking-independent half
	// (decomp.Shape.Build) and every ranking its plan over that
	// (decomp.Epoch.Instantiate).
	shape *decomp.Shape

	// estOutput is the cost model's output-cardinality estimate, and
	// estBags its per-bag materialisation estimates for the shapes that
	// expose them (the GHD planner's costed decomposition; a long
	// cycle's fan or one bag, whichever the cost model chose; any other
	// one-bag shape, whose bag is the output) — nil for the 4-cycle's
	// heavy/light union, whose filtered inputs the cost model does not
	// price.
	estOutput float64
	estBags   []float64

	// costOpts are what the cost model adds to every prepare: the
	// values it counts as heavy guide the intra-bag heavy/light split
	// (results stay bit-identical), and a searched bag picks its
	// Generic-Join order from statistics over its atoms (the canonical
	// shapes ignore the chooser).
	costOpts []decomp.PrepareOption

	// state points at the current epoch's prepared artefacts. Readers
	// load it once per call and work against that snapshot; ApplyDelta
	// builds the next epoch aside and swaps the pointer, so in-flight
	// iterators keep their epoch alive until they finish.
	state atomic.Pointer[planState]

	// deltaMu serialises ApplyDelta calls (concurrent deltas would race
	// to build successor epochs from the same base).
	deltaMu sync.Mutex
}

// planState is one epoch of a handle's prepared state: the input
// relations as of that epoch plus every data-dependent artefact derived
// from them. A planState is immutable after it is published via
// Prepared.state (the caches inside fill lazily but never change a
// built entry), so concurrent readers need no locks beyond the caches'
// own.
type planState struct {
	// epoch numbers the state: 1 after Compile, +1 per applied delta.
	epoch int64

	// srcRels are the epoch's relations aligned with Prepared.srcEdges,
	// whose weights a ranking's first plan checks against its domain
	// (instantiate).
	srcRels []*relation.Relation

	// structure is the epoch's ranking-independent half of the plan
	// (decomp.Shape.Build); plans holds, per ranking function, the plan
	// instantiated over it.
	structure *decomp.Epoch
	plans     onceCache[*decomp.Plan]

	// estTuples is the estimated total tuple count one plan instantiation
	// processes (decomp.Epoch.Tuples) — the input to
	// prepareParallelThreshold.
	estTuples int

	// sampled counts the results Sample drew on the epoch.
	sampled atomic.Int64

	// deltas holds PlanStats' delta totals (Delta*, LastDeltaNs) as of
	// this epoch, so PlanStats reads them off the same snapshot as the
	// epoch: an epoch starts from its predecessor's, and the buildState
	// and ApplyDelta that make it add what they did.
	deltas PlanStats
}

// onceCache memoizes one value per ranking function. The mutex guards
// only the map; each entry builds under its own sync.Once, so a cold
// build for one ranking function never blocks cache hits for another.
type onceCache[V any] struct {
	mu sync.Mutex
	m  map[ranking.Aggregate]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
	// done flips to true after a successful build; the atomic store
	// publishes v to concurrent snapshot readers (onceCache.built).
	done atomic.Bool
}

// get returns the cached value for agg, building it with this caller's
// build closure on a cache miss. ctx is the calling run's context: when
// the winning build fails with a cancellation error, the entry is
// dropped (a canceled prepare must not poison the cache) and callers
// whose own context is still live retry with a fresh entry — so one
// run's cancellation can never fail a concurrent run that supplied a
// healthy context.
func (c *onceCache[V]) get(ctx context.Context, agg ranking.Aggregate, build func(ranking.Aggregate) (V, error)) (V, error) {
	for {
		c.mu.Lock()
		if c.m == nil {
			c.m = make(map[ranking.Aggregate]*onceEntry[V])
		}
		e, ok := c.m[agg]
		if !ok {
			e = &onceEntry[V]{}
			c.m[agg] = e
		}
		c.mu.Unlock()
		e.once.Do(func() {
			e.v, e.err = build(agg)
			if e.err == nil {
				e.done.Store(true)
			}
		})
		if e.err == nil || (!errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded)) {
			return e.v, e.err
		}
		c.mu.Lock()
		if c.m[agg] == e {
			delete(c.m, agg)
		}
		c.mu.Unlock()
		if ctx.Err() != nil {
			// The cancellation is (or might as well be) our own: report it.
			return e.v, e.err
		}
	}
}

// built snapshots the successfully built entries: the per-ranking
// artefacts a monitoring endpoint can report without triggering (or
// waiting on) any build. Entries still building, failed, or dropped are
// omitted.
func (c *onceCache[V]) built() map[ranking.Aggregate]V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[ranking.Aggregate]V, len(c.m))
	for agg, e := range c.m {
		if e.done.Load() {
			out[agg] = e.v
		}
	}
	return out
}

// prepareParallelThreshold is the estimated total tuple count (summed
// across plan nodes or input relations) at which a prepare build runs
// on GOMAXPROCS workers instead of sequentially. Below it the prepare
// work is so small that goroutine scheduling costs more than it saves:
// parallel prepare breaks even at a few thousand tuples and the fan-out
// overhead is single-digit microseconds, so 8192 keeps tiny queries on
// the zero-overhead sequential path while everything benchmark-sized
// parallelises (the benchmark's dp.par_speedup,
// wcoj.par_speedup.hub_triangle and decomp.prepare_ms.* rows measure
// the parallel side). Tests override it to force either path
// deterministically.
var prepareParallelThreshold = 8192

// prepareWorkers picks the prepare parallelism for one build of an
// estimated estTuples: GOMAXPROCS at or above the size threshold,
// sequential below it.
func prepareWorkers(estTuples int) int {
	if estTuples >= prepareParallelThreshold {
		return parallel.Degree(0)
	}
	return 1
}

// Compile analyses and plans the query once, returning a reusable
// handle. Every query compiles to a decomposition: an acyclic query to
// the join tree of its atoms, triangle, 4-cycle, and longer cycle
// queries to their canonical decompositions (see the package doc for
// the per-shape plans), and every other cyclic shape to the bag tree the
// generalized-hypertree-decomposition search finds.
//
// Planning is cost-based: Compile counts per-column statistics
// (exact distinct counts and the most frequent values) from the
// query's relations — the one place a query's statistics come from —
// and the cost model built from them picks a searched decomposition.
// The handle keeps the model's estimates (reported by PlanStats) and
// the heavy values that guide bag builds, not the model; a delta keeps
// the decomposition and estimates chosen here and counts nothing again.
//
// Compile builds the first epoch (for an acyclic query the bottom-up
// sweep and grouping) on GOMAXPROCS workers when its input reaches a
// size threshold and sequentially below it; a ranking's plan, built on
// the first Run with it, follows the same rule. Of the RunOptions,
// Compile consults only WithContext, which makes the epoch build
// cancelable (a canceled Compile returns ctx.Err() and no handle); it
// is not retained by the handle. The remaining options are per-run and
// ignored here.
func Compile(q *Query, opts ...RunOption) (*Prepared, error) {
	if q.err != nil {
		return nil, q.err
	}
	if len(q.rels) == 0 {
		return nil, fmt.Errorf("repro: empty query")
	}
	cfg := runConfig{ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	fp, err := q.Fingerprint()
	if err != nil {
		return nil, err
	}
	// The compile span (and its children below) only record when the
	// caller's context carries an obs trace; otherwise every StartSpan
	// is a free no-op.
	var compileSpan *obs.Span
	cfg.ctx, compileSpan = obs.StartSpan(cfg.ctx, "compile")
	defer compileSpan.End()
	_, cmSpan := obs.StartSpan(cfg.ctx, "cost-model")
	cm := cfg.cm
	if cm == nil {
		cm = catalog.NewCostModel(q.edges, q.rels, nil)
	}
	cmSpan.End()
	p := &Prepared{
		fp:        fp,
		srcEdges:  q.edges,
		estOutput: cm.EstimateOutput(),
		costOpts:  []decomp.PrepareOption{decomp.WithSkewHints(skewHints(cm, q.edges)), decomp.WithOrderChooser(catalog.ChooseOrder)},
	}
	shape, path, err := q.planShape(cm)
	if err != nil {
		return nil, err
	}
	compileSpan.SetAttr("kind", path)
	if path == "ghd" {
		// No canonical shape: search for a generalized hypertree
		// decomposition now (structure only — bags materialise lazily per
		// ranking function on first Run), ranking candidates by the cost
		// model's estimated materialisation cost.
		h := hypergraph.New(q.edges...)
		_, decSpan := obs.StartSpan(cfg.ctx, "decompose")
		dec, err := h.DecomposeCosted(cm)
		decSpan.End()
		if err != nil {
			return nil, fmt.Errorf("repro: cyclic query %s: %w", h, err)
		}
		if decSpan != nil {
			decSpan.SetAttr("decomposition", dec.String())
		}
		shape = decomp.GHDShape(dec, q.edges)
	}
	p.shape, p.estBags = shape, shape.EstBagSizes
	if p.estBags == nil && shape.OneBag() {
		// A one-bag shape's bag holds the full output, so the output
		// estimate doubles as its bag estimate.
		p.estBags = []float64{p.estOutput}
	}
	// The first epoch is a delta from nothing.
	st, err := p.buildState(cfg, nil, q.rels, nil)
	if err != nil {
		return nil, err
	}
	p.state.Store(st)
	return p, nil
}

// buildState builds one epoch of prepared state over rels — the only
// place a planState is constructed. old is the predecessor epoch (nil
// at Compile) and changed flags, per atom, the relations that differ
// from old's; the bags and nodes it reuses and redoes are added to the
// delta totals it carries over from old. The epoch's structure is built
// at the parallelism a first Run would use, estimated from the input
// size (the reduced size is not known yet), and under cfg.ctx. Every
// ranking built on old is rebuilt from its old plan into the new
// state's cache, so warm rankings stay warm; with no predecessor there
// are none, and plans build lazily on first Run (planFor).
func (p *Prepared) buildState(cfg runConfig, old *planState, rels []*relation.Relation, changed []bool) (*planState, error) {
	inputTuples := 0
	for _, r := range rels {
		inputTuples += r.Len()
	}
	st := &planState{epoch: 1, srcRels: rels}
	var oldStructure *decomp.Epoch
	if old != nil {
		st.epoch, st.deltas, oldStructure = old.epoch+1, old.deltas, old.structure
	}
	workers := prepareWorkers(inputTuples)
	structure, ds, err := p.shape.Build(rels, oldStructure, changed, p.prepareOpts(cfg.ctx, workers)...)
	if err != nil {
		return nil, err
	}
	st.structure, st.estTuples = structure, structure.Tuples()
	n := &st.deltas
	n.DeltaNodesReused += int64(ds.TreeNodes - ds.TreeRegrouped)
	if old != nil {
		for agg, oldPlan := range old.plans.built() {
			var rds decomp.DeltaStats
			_, err := st.plans.get(cfg.ctx, agg, func(a ranking.Aggregate) (d *decomp.Plan, err error) {
				d, rds, err = p.instantiate(st, a, oldPlan, cfg.ctx, workers)
				return d, err
			})
			if err != nil {
				return nil, err
			}
			n.DeltaBagsRebuilt += int64(rds.BagsRebuilt)
			n.DeltaNodesRecomputed += int64(rds.TreeRecomputed)
			n.DeltaNodesReused += int64(rds.TreeNodes - rds.TreeRecomputed)
		}
	}
	return st, nil
}

// OutAttrs returns the output schema every iterator of this handle
// yields. The returned slice must not be modified.
func (p *Prepared) OutAttrs() []string { return p.shape.Attrs }

// Fingerprint returns the shape fingerprint of the compiled query (see
// Query.Fingerprint), computed once at Compile time.
func (p *Prepared) Fingerprint() string { return p.fp }

// Epoch returns the handle's current data epoch: 1 after Compile,
// incremented by every ApplyDelta that changed at least one relation.
func (p *Prepared) Epoch() int64 { return p.state.Load().epoch }

// PlanStats describes a compiled handle for monitoring: what shape it
// compiled to, how much input the prepare phase processes, and which
// per-ranking physical artefacts have been built so far. The serving
// layer surfaces it from /v1/stats.
type PlanStats struct {
	// Fingerprint is the query-shape fingerprint (Query.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Kind is the compiled shape: "acyclic", "triangle", "four-cycle",
	// "cycle", or "ghd".
	Kind string `json:"kind"`
	// OutAttrs is the output schema of every iterator of the handle.
	OutAttrs []string `json:"out_attrs"`
	// Epoch is the handle's data epoch: 1 after Compile, +1 per applied
	// delta batch that changed at least one relation.
	Epoch int64 `json:"epoch"`
	// EstTuples is the estimated tuple count the prepare phase processes
	// (the input to the prepare-parallelism threshold).
	EstTuples int `json:"est_tuples"`
	// Solutions is the exact output cardinality, counted without
	// enumeration by the epoch's first PlanStats, Count or Sample, for
	// every kind. A kind that materialises bags counts off a ranking's
	// plan, so PlanStats reports it once some ranking is built. -1 until
	// then, and for good when the count does not fit an int64.
	Solutions int `json:"solutions"`
	// Rankings lists the ranking functions whose plans (π weights, and
	// the materialised bags of cyclic shapes) are built and cached on
	// the handle, sorted by name. A run with any of these
	// rankings does zero preparation.
	Rankings []RankingStats `json:"rankings"`
	// Decomposition renders the chosen bag decomposition
	// (hypergraph.Decomposition.String) of "ghd" plans and of "cycle"
	// plans, whose bags say whether the fan or one bag won; empty for
	// other kinds.
	Decomposition string `json:"decomposition,omitempty"`
	// EstOutput is the cost model's output-cardinality estimate.
	EstOutput float64 `json:"est_output,omitempty"`
	// EstBagSizes are the cost model's per-bag materialisation estimates
	// for shapes that expose them (triangle, cycle, ghd), aligned with the
	// flattened actual bag sizes of any built ranking.
	EstBagSizes []float64 `json:"est_bag_sizes,omitempty"`
	// EstimatorError is the estimator's worst per-bag error factor,
	// max(est+1, actual+1)/min(est+1, actual+1) over the compared sizes:
	// per materialised bag once some ranking has been built when the
	// shape has per-bag estimates, est-vs-exact output once Solutions is
	// known otherwise. 0 until actuals are known.
	EstimatorError float64 `json:"estimator_error,omitempty"`
	// SampleTrials and SampleAccepts both count the results Sample drew
	// on the current epoch: a draw is never rejected.
	SampleTrials  int64 `json:"sample_trials,omitempty"`
	SampleAccepts int64 `json:"sample_accepts,omitempty"`

	// DeltasApplied counts the ApplyDelta batches that advanced the
	// epoch; DeltaAppendedRows/DeltaDeletedRows sum the rows they
	// touched across the handle's lifetime.
	DeltasApplied     int64 `json:"deltas_applied,omitempty"`
	DeltaAppendedRows int64 `json:"delta_appended_rows,omitempty"`
	DeltaDeletedRows  int64 `json:"delta_deleted_rows,omitempty"`
	// DeltaBagsRebuilt counts the decomposition bags re-materialised
	// across all deltas: a delta rebuilds every bag of every built
	// ranking's plan (cyclic kinds). DeltaNodesReused/
	// DeltaNodesRecomputed count join-tree nodes whose π pass was skipped
	// vs rerun: an atom tree patches where the delta reached, a bag tree
	// reruns every node.
	DeltaBagsRebuilt     int64 `json:"delta_bags_rebuilt,omitempty"`
	DeltaNodesReused     int64 `json:"delta_nodes_reused,omitempty"`
	DeltaNodesRecomputed int64 `json:"delta_nodes_recomputed,omitempty"`
	// LastDeltaNs is the wall time of the most recent ApplyDelta.
	LastDeltaNs int64 `json:"last_delta_ns,omitempty"`
}

// estRatio is the symmetric error factor between an estimate and an
// actual count, add-one smoothed so empty bags compare cleanly.
func estRatio(est, actual float64) float64 {
	a, b := est+1, actual+1
	if a < b {
		return b / a
	}
	return a / b
}

// RankingStats describes the cached physical artefacts of one ranking
// function on a Prepared handle.
type RankingStats struct {
	// Ranking is the aggregate's Name().
	Ranking string `json:"ranking"`
	// BagSizes reports the materialised bag sizes (one inner slice per
	// tree that materialises bags, one entry per bag); nil for acyclic
	// handles, whose bags are their atoms.
	BagSizes [][]int `json:"bag_sizes,omitempty"`
	// TotalMaterialized sums all bag sizes; 0 for acyclic handles.
	TotalMaterialized int `json:"total_materialized,omitempty"`
}

// PlanStats snapshots the handle without triggering or waiting on any
// plan build: rankings mid-build are simply not listed yet. It counts
// the epoch's answers if no call has yet. Safe to call concurrently with
// Runs and ApplyDelta; every field describes one epoch, whose delta
// totals are those of the deltas that produced it.
func (p *Prepared) PlanStats() PlanStats {
	s := p.state.Load()
	st := s.deltas
	st.Fingerprint, st.Kind, st.Decomposition, st.OutAttrs = p.fp, p.shape.Kind, p.shape.Decomposition, p.shape.Attrs
	st.Epoch, st.EstTuples, st.Solutions = s.epoch, s.estTuples, -1
	st.SampleTrials, st.SampleAccepts = s.sampled.Load(), s.sampled.Load()
	if n, err := s.structure.NumSolutions(s.firstPlan()); err == nil {
		st.Solutions = n
	}
	// actualBags flattens one built ranking's materialised bag sizes.
	// Bag contents (and so sizes) are identical across rankings — only
	// the weights differ — so any built plan serves as the actuals the
	// estimates are compared against.
	var actualBags []int
	for agg, d := range s.plans.built() {
		st.Rankings = append(st.Rankings, RankingStats{
			Ranking:           agg.Name(),
			BagSizes:          d.Stats.BagSizes,
			TotalMaterialized: d.Stats.TotalMaterialized,
		})
		if actualBags == nil {
			for _, tree := range d.Stats.BagSizes {
				actualBags = append(actualBags, tree...)
			}
		}
	}
	sort.Slice(st.Rankings, func(i, j int) bool { return st.Rankings[i].Ranking < st.Rankings[j].Ranking })
	st.EstOutput = p.estOutput
	st.EstBagSizes = p.estBags
	switch {
	case len(p.estBags) == 0 && st.Solutions >= 0:
		st.EstimatorError = estRatio(p.estOutput, float64(st.Solutions))
	case len(p.estBags) > 0 && len(actualBags) == len(p.estBags):
		for i, a := range actualBags {
			if r := estRatio(p.estBags[i], float64(a)); r > st.EstimatorError {
				st.EstimatorError = r
			}
		}
	}
	return st
}

// runConfig collects the options of one Run (or Compile).
type runConfig struct {
	agg     ranking.Aggregate
	variant Variant
	k       int
	ctx     context.Context
	cm      *catalog.CostModel // withCostModel; nil collects statistics
	seed    uint64
	seedSet bool
}

// RunOption configures one execution of a Prepared query. The defaults
// are WithRanking(SumCost), WithVariant(Lazy), no k limit, and
// context.Background(). Compile and ApplyDelta take the same options
// and consult WithContext.
type RunOption func(*runConfig)

// WithRanking selects the ranking function for this run. The first run
// with each ranking function pays one linear π pass (over the bags of a
// cyclic shape, materialised first); later runs reuse it.
func WithRanking(agg ranking.Aggregate) RunOption { return func(c *runConfig) { c.agg = agg } }

// WithVariant selects the any-k algorithm variant for this run; an
// unknown variant fails the run. Plans of a single bag (triangles,
// one-bag GHDs) enumerate one sorted relation, whatever the variant.
// Every variant yields the same weight sequence; the order *within* a
// run of equal weights is the variant's own, so when k cuts through
// such a run, which of its members fill the last places differs between
// variants (and may differ across ApplyDelta epochs).
func WithVariant(v Variant) RunOption { return func(c *runConfig) { c.variant = v } }

// WithK limits the run to the k best results (k <= 0 means no limit).
// Enumeration is lazy either way; the limit only caps Next.
func WithK(k int) RunOption { return func(c *runConfig) { c.k = k } }

// WithContext attaches a cancellation context to the run: once ctx is
// done, the iterator's Next returns false and Err reports ctx.Err().
// The context also covers the plan a first Run with a new ranking
// function builds: cancellation there fails the Run with ctx.Err(), and
// a later Run simply rebuilds — a canceled prepare is never cached. A
// nil ctx keeps the default, context.Background().
func WithContext(ctx context.Context) RunOption {
	return func(c *runConfig) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// skewHints reads the model's heavy values of every query variable
// once, so a handle keeps those few values rather than the model, whose
// per-column statistics only Compile reads.
func skewHints(cm *catalog.CostModel, edges []hypergraph.Edge) wcoj.SkewHints {
	heavy := make(map[string][]relation.Value)
	for _, e := range edges {
		for _, v := range e.Vars {
			if _, done := heavy[v]; !done {
				heavy[v] = cm.HeavyValues(v)
			}
		}
	}
	return func(v string) []relation.Value { return heavy[v] }
}

// withCostModel makes Compile plan with m instead of collecting
// statistics from the query's relations. Tests pin one plan on both
// sides of a delta-versus-cold comparison with it.
func withCostModel(m *catalog.CostModel) RunOption {
	return func(cfg *runConfig) { cfg.cm = m }
}

// WithSeed fixes the RNG seed of a Sample call, making its draws
// reproducible (equal seeds on equal data draw equal results). When
// omitted, each Sample call takes the next seed from a process-wide
// sequence, so repeated calls explore different draws. Ignored by
// Run/TopK/Count — ranked enumeration is deterministic already.
func WithSeed(seed uint64) RunOption {
	return func(cfg *runConfig) {
		cfg.seed = seed
		cfg.seedSet = true
	}
}

// newRunConfig finalises the options of one Run, Sample or ApplyDelta:
// the documented defaults, then the caller's options, then the one
// check every entry point shares.
func newRunConfig(opts []RunOption) (runConfig, error) {
	cfg := runConfig{variant: Lazy, ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg, core.CheckVariant(cfg.variant)
}

// Run executes the compiled plan and returns a ranked iterator. Always
// Close the iterator (idempotent) and check Err after Next reports
// false. Concurrent Runs on one handle are safe and share the cached
// per-ranking plan, and with it the plan's candidate structures (a
// one-bag plan's sorted bag): what one Run sorts, every later or
// concurrent Run with the same ranking and variant reads, in the same
// order, so a warm Run repeats no sort. The plan holds them only while
// some iterator does; an idle plan's are reclaimed by the next garbage
// collection and rebuilt by the next Run. A Run concurrent with
// ApplyDelta enumerates either entirely the old or entirely the new
// epoch.
func (p *Prepared) Run(opts ...RunOption) (Iterator, error) {
	cfg, err := newRunConfig(opts)
	if err != nil {
		return nil, err
	}
	d, err := p.planFor(cfg, p.state.Load(), cfg.agg)
	if err != nil {
		return nil, err
	}
	it, err := d.Run(cfg.ctx, cfg.variant)
	if err != nil {
		return nil, err
	}
	if cfg.k > 0 {
		it = core.Limit(it, cfg.k)
	}
	if _, enumSpan := obs.StartSpan(cfg.ctx, "enumerate"); enumSpan != nil {
		enumSpan.SetAttr("ranking", cfg.agg.Name())
		it = &traceIter{it: it, span: enumSpan, k: cfg.k}
	}
	return it, nil
}

// traceIter instruments an iterator with the "enumerate" span of a
// traced run: point events mark the first and the k'th result, and the
// span ends when enumeration is exhausted or the iterator is closed —
// whichever comes first (Span.End is idempotent and safe against a
// Close from another goroutine racing the consumer's Next).
type traceIter struct {
	it    Iterator
	span  *obs.Span
	k     int
	count int
}

func (t *traceIter) Next() (Result, bool) {
	r, ok := t.it.Next()
	if ok {
		t.count++
		if t.count == 1 {
			t.span.Event("first-result")
		}
		if t.k > 0 && t.count == t.k {
			t.span.Event("kth-result")
		}
	} else {
		t.span.End()
	}
	return r, ok
}

func (t *traceIter) Err() error { return t.it.Err() }

func (t *traceIter) Close() error {
	err := t.it.Close()
	t.span.End()
	return err
}

// TopK runs the plan and collects the k best results (k <= 0 collects
// everything), each tuple a copy the caller owns. The iterator is
// closed before returning; a cancellation
// error is returned alongside the results collected so far.
func (p *Prepared) TopK(k int, opts ...RunOption) ([]Result, error) {
	it, err := p.Run(append(append([]RunOption(nil), opts...), WithK(k))...)
	if err != nil {
		return nil, err
	}
	out := core.Collect(it, k)
	err = it.Err()
	it.Close()
	return out, err
}

// Count returns the number of join results without enumerating them,
// summed over the plan's trees: a one-bag tree counts its bag, every
// other tree reads its dynamic program's counts, which the epoch's first
// PlanStats, Count or Sample builds. A cyclic handle counts off a
// ranking's plan already built, or builds the MaxCost plan (under
// WithContext), whose domain admits every weight. Counting does not
// rank: the ranking, the variant and WithK are validated but change
// nothing. A count that does not fit an int64 is an error.
func (p *Prepared) Count(opts ...RunOption) (int, error) {
	cfg, err := newRunConfig(opts)
	if err != nil {
		return 0, err
	}
	st := p.state.Load()
	n, err := st.structure.NumSolutions(st.firstPlan())
	if n < 0 && err == nil {
		var d *decomp.Plan
		if d, err = p.planFor(cfg, st, MaxCost); err != nil {
			return 0, err
		}
		n, err = st.structure.NumSolutions(d)
	}
	if errors.Is(err, dp.ErrCountOverflow) {
		return 0, errCountOverflow
	}
	return n, err
}

// errCountOverflow is Count's and Sample's error for a result count
// that does not fit an int64.
var errCountOverflow = fmt.Errorf("repro: %w", dp.ErrCountOverflow)

// firstPlan is the epoch's built plan whose ranking sorts first, nil
// when none is built: the plan a count reads (decomp.Epoch.NumSolutions)
// when a tree materialises bags, so repeated counts read one memo.
func (st *planState) firstPlan() *decomp.Plan {
	var first *decomp.Plan
	name := ""
	for agg, d := range st.plans.built() {
		if first == nil || agg.Name() < name {
			first, name = d, agg.Name()
		}
	}
	return first
}

// IsEmpty answers the Boolean query "does the join have any result?"
// without counting (decomp.Epoch.IsEmpty): a tree of atoms answers off
// its reduced root, and a tree of materialised bags off the plan Count
// would read, built as Count builds it when there is none.
func (p *Prepared) IsEmpty(opts ...RunOption) (bool, error) {
	cfg, err := newRunConfig(opts)
	if err != nil {
		return false, err
	}
	st := p.state.Load()
	empty, known := st.structure.IsEmpty(st.firstPlan())
	if !known {
		d, err := p.planFor(cfg, st, MaxCost)
		if err != nil {
			return false, err
		}
		empty, _ = st.structure.IsEmpty(d)
	}
	return empty, nil
}

// planFor returns (building and caching on first use) the epoch's plan
// under agg, for a Run, Count or Sample with options cfg. Its context
// only matters to the call that triggers the build; cache hits ignore
// it. A build is cancelable between node and bag tasks, and a canceled
// one fails with ctx.Err() and is dropped from the cache (the onceCache
// retry-on-cancel policy), so one run's cancellation never poisons the
// per-aggregate entry — the next Run rebuilds.
// Parallel builds are bit-identical to sequential ones, so the cached
// plan does not depend on which Run won the build. The "prepare" span
// covers the build (the π pass, after bag materialisation for cyclic
// shapes); on a cache hit it records ~0 duration, which is itself the
// signal a dashboard wants.
func (p *Prepared) planFor(cfg runConfig, st *planState, agg ranking.Aggregate) (*decomp.Plan, error) {
	ctx, sp := obs.StartSpan(cfg.ctx, "prepare")
	defer sp.End()
	workers := prepareWorkers(st.estTuples)
	return st.plans.get(ctx, agg, func(a ranking.Aggregate) (*decomp.Plan, error) {
		d, _, err := p.instantiate(st, a, nil, ctx, workers)
		return d, err
	})
}

// instantiate builds the plan of epoch st under agg. old is the plan the
// previous epoch held for agg (nil: none): an atom tree patches its π
// pass from it, a tree of materialised bags is rebuilt whole
// (decomp.Epoch.Instantiate), and the DeltaStats say what was redone.
// It first scans the epoch's weights once for one on which agg is not
// monotone (ranking.Aggregate.CheckDomain: ≤ 0 under ProductCost, +Inf
// in one atom beside −Inf in another under a sum) and fails naming
// relation and row, so a Run fails instead of enumerating in an order
// that depends on the variant, and an ApplyDelta that brings such a row
// under a warm ranking leaves the handle on its old epoch.
func (p *Prepared) instantiate(st *planState, agg ranking.Aggregate, old *decomp.Plan, ctx context.Context, workers int) (*decomp.Plan, decomp.DeltaStats, error) {
	names, weights := make([]string, len(st.srcRels)), make([][]float64, len(st.srcRels))
	for i, r := range st.srcRels {
		names[i], weights[i] = p.srcEdges[i].Name, r.Weights
	}
	if err := agg.CheckDomain(names, weights); err != nil {
		return nil, decomp.DeltaStats{}, fmt.Errorf("repro: %w", err)
	}
	return st.structure.Instantiate(agg, old, p.prepareOpts(ctx, workers)...)
}

// prepareOpts are the options of one epoch build or plan instantiation.
func (p *Prepared) prepareOpts(ctx context.Context, workers int) []decomp.PrepareOption {
	return append([]decomp.PrepareOption{decomp.WithWorkers(workers), decomp.WithContext(ctx)}, p.costOpts...)
}

// ErrTrialBudget reports that Sample drew nothing because the join has
// no results.
var ErrTrialBudget = errors.New("repro: no results to sample")

// sampleSeq feeds default seeds to Sample calls that pass no WithSeed.
var sampleSeq atomic.Uint64

// Sample draws n results uniformly at random, with replacement, from
// those Run enumerates under the run's ranking, without enumerating
// them: each is a Result in OutAttrs order with the weight enumeration
// gives it, and a tuple the caller owns. Samples are not ranked. It
// builds the ranking's plan as Run would (so a first Sample on a cyclic
// handle materialises its bags and checks the ranking's domain), counts
// the plan's results once, and descends those exact counts
// (decomp.Plan.Sample), so no draw is rejected. Sampling follows bag
// semantics: a result repeated in the inputs is as likely as its copies
// are many. Honors WithContext, WithRanking and WithSeed. An empty join
// yields zero samples and ErrTrialBudget; a join whose count does not
// fit an int64 fails as Count does.
func (p *Prepared) Sample(n int, opts ...RunOption) ([]Result, error) {
	cfg, err := newRunConfig(opts)
	if err != nil {
		return nil, err
	}
	st := p.state.Load()
	d, err := p.planFor(cfg, st, cfg.agg)
	if err != nil {
		return nil, err
	}
	seed := cfg.seed
	if !cfg.seedSet {
		seed = sampleSeq.Add(1)
	}
	sctx, sampleSpan := obs.StartSpan(cfg.ctx, "sample")
	out, err := d.Sample(sctx, n, rand.New(rand.NewPCG(seed, 0)))
	sampleSpan.End()
	st.sampled.Add(int64(len(out)))
	switch {
	case errors.Is(err, dp.ErrCountOverflow):
		return nil, errCountOverflow
	case err == nil && n > 0 && len(out) == 0:
		return nil, ErrTrialBudget
	}
	return out, err
}
