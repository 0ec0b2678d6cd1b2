package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/sample"
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
	// atoms if it is acyclic, the canonical shape of its cycle length, or
	// the GHD the structural search found. It is chosen once; every epoch
	// builds its ranking-independent half (decomp.Shape.Build) and every
	// ranking its plan over that (decomp.Epoch.Instantiate).
	shape *decomp.Shape

	// workers is the compile-time default parallelism for the prepare
	// phase (the epoch build and each ranking's plan); workersSet records
	// whether WithParallelism was passed to Compile at all. When it was
	// not, the prepare parallelism is chosen per build: GOMAXPROCS when
	// the estimated input size clears prepareParallelThreshold,
	// sequential below it. WithParallelism on a Run overrides both for the
	// build that run triggers.
	workers    int
	workersSet bool

	// costBased records whether a cost model drove this compilation (see
	// WithStatistics); when it did, estOutput is the model's output-
	// cardinality estimate, and estBags its per-bag materialisation
	// estimates for the shapes that expose them (the GHD planner's costed
	// decomposition; any one-bag shape, whose bag is the output) — nil
	// for the canonical 4-cycle and fan-cycle plans, whose bag structure
	// is fixed by the shape rather than searched.
	costBased bool
	estOutput float64
	estBags   []float64

	// costOpts are what a cost model adds to every prepare: its
	// Misra–Gries heavy hitters guide the intra-bag heavy/light split
	// (results stay bit-identical), and a searched bag picks its
	// Generic-Join order from statistics over its atoms (the canonical
	// shapes ignore the chooser). Empty without a cost model.
	costOpts []decomp.PrepareOption

	// state points at the current epoch's prepared artefacts. Readers
	// load it once per call and work against that snapshot; ApplyDelta
	// builds the next epoch aside and swaps the pointer, so in-flight
	// iterators keep their epoch alive until they finish.
	state atomic.Pointer[planState]

	// deltaMu serialises ApplyDelta calls (concurrent deltas would race
	// to build successor epochs from the same base).
	deltaMu sync.Mutex

	// Cumulative delta counters across the handle's lifetime, surfaced
	// by PlanStats.
	deltasApplied        atomic.Int64
	deltaAppendedRows    atomic.Int64
	deltaDeletedRows     atomic.Int64
	deltaBagsRebuilt     atomic.Int64
	deltaNodesReused     atomic.Int64
	deltaNodesRecomputed atomic.Int64
	lastDeltaNs          atomic.Int64
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

	// srcRels are the epoch's relations aligned with Prepared.srcEdges —
	// the uniform answer sampler walks these directly, whatever plan
	// shape the handle compiled to.
	srcRels []*relation.Relation

	// structure is the epoch's ranking-independent half of the plan
	// (decomp.Shape.Build); plans holds, per ranking function, the plan
	// instantiated over it.
	structure *decomp.Epoch
	plans     onceCache[*decomp.Plan]

	// solutions is the exact output cardinality, -1 until known. It is
	// an O(total tuples) counting pass that must not re-run per
	// Count/PlanStats call, so it is computed once per epoch: at the
	// build when no tree materialises bags, otherwise off the first plan
	// a Count or PlanStats finds (count).
	solutions atomic.Int64

	// estTuples is the estimated total tuple count one plan instantiation
	// processes (decomp.Epoch.Tuples) — the input to the
	// default-parallelism threshold.
	estTuples int

	// The sampler builds lazily on the first Sample call of the epoch
	// (it re-sorts every atom into its own tries) and is cached for the
	// epoch's lifetime; samplePerm maps outAttrs positions to sampler
	// variable positions.
	samplerMu  sync.Mutex
	sampler    *sample.Sampler
	samplerErr error
	samplerSet bool
	samplePerm []int
}

// onceCache memoizes one value per ranking function. The mutex guards
// only the map; each entry builds under its own sync.Once, so a cold
// build for one ranking function never blocks cache hits for another.
// Aggregates whose dynamic type is not comparable (and so cannot be a
// map key) are built fresh on every call.
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
	if !reflect.TypeOf(agg).Comparable() {
		return build(agg)
	}
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
// across plan nodes or input relations) above which an unset
// WithParallelism resolves to GOMAXPROCS instead of sequential. Below
// it the prepare work is so small that goroutine scheduling costs more
// than it saves: parallel prepare breaks even at a few thousand tuples
// and the fan-out overhead is single-digit microseconds, so 8192 keeps
// tiny queries on the zero-overhead sequential path while everything
// benchmark-sized parallelises (the benchmark's dp.par_speedup,
// wcoj.par_speedup.hub_triangle and decomp.prepare_ms.* rows measure
// the parallel side). Tests override it to force either path
// deterministically.
var prepareParallelThreshold = 8192

// prepareWorkers picks the prepare parallelism for one build: an
// explicit WithParallelism (on the call in cfg, else on Compile) always
// wins; otherwise the size threshold decides between GOMAXPROCS and
// sequential.
func (p *Prepared) prepareWorkers(cfg runConfig, estTuples int) int {
	switch {
	case cfg.workersSet:
		return cfg.workers
	case p.workersSet:
		return p.workers
	case estTuples >= prepareParallelThreshold:
		return parallel.Degree(0)
	}
	return 1
}

// Compile analyses and plans the query once, returning a reusable
// handle. Every query compiles to a decomposition: an acyclic query to
// the join tree of its atoms, triangle, 4-cycle, and longer cycle
// queries to their canonical decompositions (see Ranked for the
// per-shape plans), and every other cyclic shape to the bag tree the
// generalized-hypertree-decomposition search finds.
//
// Compile accepts CompileOptions — which include every RunOption.
// WithParallelism drives the first epoch's build (for an acyclic query
// the full reduction and grouping) and sets the handle's default
// prepare parallelism (how many workers build a ranking's plan on the
// first Run with it); when it is omitted, parallelism defaults to
// GOMAXPROCS for inputs above a size threshold and sequential below
// it. WithContext makes the epoch build cancelable (a canceled Compile
// returns ctx.Err() and no handle); it is not retained by the handle.
// WithStatistics/WithCostModel — the compile-only options — steer
// cost-based planning (on by default; see WithStatistics). The
// remaining run options are per-run and ignored here.
func Compile(q *Query, opts ...CompileOption) (*Prepared, error) {
	if q.err != nil {
		return nil, q.err
	}
	if len(q.rels) == 0 {
		return nil, fmt.Errorf("repro: empty query")
	}
	cfg := runConfig{ctx: context.Background()}
	for _, o := range opts {
		o.applyCompile(&cfg)
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
	// Resolve the cost model: an explicit WithCostModel wins;
	// WithStatistics(nil) disables cost-based planning entirely;
	// otherwise build one from the supplied catalog (statistics for
	// atoms it misses are collected from the query's relations on the
	// spot — the default-on path when no option was passed at all).
	_, cmSpan := obs.StartSpan(cfg.ctx, "cost-model")
	cm := cfg.cm
	if cm == nil && !(cfg.catSet && cfg.cat == nil) {
		cm = catalog.NewCostModel(q.edges, q.rels, cfg.cat)
	}
	cmSpan.End()
	p := &Prepared{
		fp:         fp,
		srcEdges:   q.edges,
		workers:    cfg.workers,
		workersSet: cfg.workersSet,
		costBased:  cm != nil,
	}
	if cm != nil {
		p.estOutput = cm.EstimateOutput()
		p.costOpts = []decomp.PrepareOption{decomp.WithSkewHints(cm.HeavyValues), decomp.WithOrderChooser(catalog.ChooseOrder)}
	}
	shape, path, err := q.planShape()
	if err != nil {
		return nil, err
	}
	compileSpan.SetAttr("kind", path)
	if path == "ghd" {
		// No canonical shape: search for a generalized hypertree
		// decomposition now (structure only — bags materialise lazily per
		// ranking function on first Run). With a cost model the search
		// ranks candidates by estimated materialisation cost instead of
		// the purely structural width criteria. The explicit nil-check
		// matters: an interface holding a typed nil would not reproduce
		// the structural path.
		h := hypergraph.New(q.edges...)
		var dec *hypergraph.Decomposition
		_, decSpan := obs.StartSpan(cfg.ctx, "decompose")
		if cm != nil {
			dec, err = h.DecomposeCosted(cm)
		} else {
			dec, err = h.Decompose()
		}
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
	if cm != nil && p.estBags == nil && shape.OneBag() {
		// A one-bag shape's bag holds the full output, so the output
		// estimate doubles as its bag estimate.
		p.estBags = []float64{p.estOutput}
	}
	// The first epoch is a delta from nothing.
	st, _, err := p.buildState(cfg, nil, q.rels, nil)
	if err != nil {
		return nil, err
	}
	p.state.Store(st)
	return p, nil
}

// deltaCounts sums what one buildState reused and redid, in the units
// PlanStats reports: decomposition bags and join-tree nodes.
type deltaCounts struct {
	bagsRebuilt, nodesReused, nodesRecomputed int64
}

// buildState builds one epoch of prepared state over rels — the only
// place a planState is constructed. old is the predecessor epoch (nil
// at Compile) and changed flags, per atom, the relations that differ
// from old's. The epoch's structure is built at the parallelism a first
// Run would use, estimated from the input size (the reduced size is not
// known yet), and under cfg.ctx. Every ranking built on old is rebuilt
// from its old plan into the new state's cache, so warm rankings stay
// warm; with no predecessor there are none, and plans build lazily
// on first Run (planFor).
func (p *Prepared) buildState(cfg runConfig, old *planState, rels []*relation.Relation, changed []bool) (*planState, deltaCounts, error) {
	var n deltaCounts
	inputTuples := 0
	for _, r := range rels {
		inputTuples += r.Len()
	}
	st := &planState{epoch: 1, srcRels: rels}
	var oldStructure *decomp.Epoch
	if old != nil {
		st.epoch, oldStructure = old.epoch+1, old.structure
	}
	workers := p.prepareWorkers(cfg, inputTuples)
	structure, ds, err := p.shape.Build(rels, oldStructure, changed, p.prepareOpts(cfg.ctx, workers)...)
	if err != nil {
		return nil, n, err
	}
	st.structure, st.estTuples = structure, structure.Tuples()
	st.solutions.Store(int64(structure.NumSolutions(nil)))
	n.nodesReused += int64(ds.TreeNodes - ds.TreeRegrouped)
	if old != nil {
		for agg, oldPlan := range old.plans.built() {
			var rds decomp.DeltaStats
			_, err := st.plans.get(cfg.ctx, agg, func(a ranking.Aggregate) (d *decomp.Plan, err error) {
				d, rds, err = p.instantiate(st, a, oldPlan, cfg.ctx, workers)
				return d, err
			})
			if err != nil {
				return nil, n, err
			}
			n.bagsRebuilt += int64(rds.BagsRebuilt)
			n.nodesRecomputed += int64(rds.TreeRecomputed)
			n.nodesReused += int64(rds.TreeNodes - rds.TreeRecomputed)
		}
	}
	return st, n, nil
}

// Prepare is Compile as a method on the query builder.
func (q *Query) Prepare(opts ...CompileOption) (*Prepared, error) { return Compile(q, opts...) }

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
	// (the input to the default-parallelism threshold).
	EstTuples int `json:"est_tuples"`
	// Solutions is the exact output cardinality, counted without
	// enumeration; exact once known, for every kind: from Compile (or the
	// delta) on when no bag is materialised, otherwise from the first
	// Count or the first PlanStats after some ranking is built. -1 until
	// then.
	Solutions int `json:"solutions"`
	// Rankings lists the ranking functions whose plans (π weights, and
	// the materialised bags of cyclic shapes) are built and cached on
	// the handle, sorted by name. A run with any of these
	// rankings does zero preparation.
	Rankings []RankingStats `json:"rankings"`
	// CostBased reports whether a cost model (statistics catalog) drove
	// this compilation; false means the purely structural heuristics
	// planned it.
	CostBased bool `json:"cost_based"`
	// Decomposition renders the chosen bag decomposition of "ghd" plans
	// (hypergraph.Decomposition.String); empty for other kinds.
	Decomposition string `json:"decomposition,omitempty"`
	// EstOutput is the cost model's output-cardinality estimate; 0 when
	// the plan is not cost-based.
	EstOutput float64 `json:"est_output,omitempty"`
	// EstBagSizes are the cost model's per-bag materialisation estimates
	// for shapes that expose them (triangle, ghd), aligned with the
	// flattened actual bag sizes of any built ranking.
	EstBagSizes []float64 `json:"est_bag_sizes,omitempty"`
	// EstimatorError is the estimator's worst per-bag error factor,
	// max(est+1, actual+1)/min(est+1, actual+1) over the compared sizes:
	// per materialised bag once some ranking has been built when the
	// shape has per-bag estimates, est-vs-exact output once Solutions is
	// known otherwise. 0 until actuals are known (or when the plan is not
	// cost-based).
	EstimatorError float64 `json:"estimator_error,omitempty"`
	// AGMBound is the worst-case output bound the uniform answer
	// sampler draws against (sample.Sampler.Bound); set once a Sample
	// call has built the sampler for the current epoch.
	AGMBound float64 `json:"agm_bound,omitempty"`
	// SampleTrials/SampleAccepts are the sampler's cumulative rejection
	// walk counters across every Sample call on the current epoch.
	SampleTrials  int64 `json:"sample_trials,omitempty"`
	SampleAccepts int64 `json:"sample_accepts,omitempty"`
	// EstCardinality is the unbiased estimate of the number of distinct
	// answers implied by those counters: acceptance rate × AGMBound.
	EstCardinality float64 `json:"est_cardinality,omitempty"`

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
// build: rankings mid-build are simply not listed yet. Safe to call
// concurrently with Runs and ApplyDelta.
func (p *Prepared) PlanStats() PlanStats {
	s := p.state.Load()
	st := PlanStats{
		Fingerprint:   p.fp,
		Kind:          p.shape.Kind,
		Decomposition: p.shape.Decomposition,
		OutAttrs:      p.shape.Attrs,
		Epoch:         s.epoch,
		EstTuples:     s.estTuples,
		Solutions:     int(s.solutions.Load()),
	}
	// actualBags flattens one built ranking's materialised bag sizes.
	// Bag contents (and so sizes) are identical across rankings — only
	// the weights differ — so any built plan serves as the actuals the
	// estimates are compared against, and as the one to count off.
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
		if st.Solutions < 0 {
			st.Solutions = s.count(d)
		}
	}
	sort.Slice(st.Rankings, func(i, j int) bool { return st.Rankings[i].Ranking < st.Rankings[j].Ranking })
	st.CostBased = p.costBased
	if p.costBased {
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
	}
	s.samplerMu.Lock()
	if s.samplerSet && s.sampler != nil {
		st.AGMBound = s.sampler.Bound()
		st.EstCardinality, st.SampleTrials, st.SampleAccepts = s.sampler.Estimate()
	}
	s.samplerMu.Unlock()
	st.DeltasApplied = p.deltasApplied.Load()
	st.DeltaAppendedRows = p.deltaAppendedRows.Load()
	st.DeltaDeletedRows = p.deltaDeletedRows.Load()
	st.DeltaBagsRebuilt = p.deltaBagsRebuilt.Load()
	st.DeltaNodesReused = p.deltaNodesReused.Load()
	st.DeltaNodesRecomputed = p.deltaNodesRecomputed.Load()
	st.LastDeltaNs = p.lastDeltaNs.Load()
	return st
}

// runConfig collects the per-execution options of one Run (and, for the
// compile-only options, one Compile).
type runConfig struct {
	agg        ranking.Aggregate
	variant    Variant
	k          int
	ctx        context.Context
	workers    int
	workersSet bool
	cat        *catalog.Catalog
	catSet     bool
	cm         *catalog.CostModel
	seed       uint64
	seedSet    bool
}

// CompileOption configures one Compile (or Query.Prepare) call. Every
// RunOption is also a CompileOption — Compile consults WithParallelism
// and WithContext and ignores the rest — while the compile-only options
// (WithStatistics, WithCostModel) are *not* RunOptions: passing them to
// Run is a compile-time error rather than a silent no-op.
type CompileOption interface {
	applyCompile(*runConfig)
}

// RunOption configures one execution of a Prepared query. The defaults
// are WithRanking(SumCost), WithVariant(Lazy), no k limit, and
// context.Background(). Every RunOption may also be passed to Compile
// (it implements CompileOption).
type RunOption func(*runConfig)

// applyCompile lets every RunOption double as a CompileOption.
func (o RunOption) applyCompile(c *runConfig) { o(c) }

// compileOption is the concrete type of the compile-only options.
type compileOption func(*runConfig)

func (o compileOption) applyCompile(c *runConfig) { o(c) }

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

// WithParallelism sets how many workers run the prepare phase (an
// epoch's build, and the first Run with each ranking function):
// independent bags materialise concurrently, leftover workers partition
// the first join variable inside each Generic-Join bag, and an acyclic
// query's reduction, grouping and π pass fan out across each depth
// level. n <= 0 selects GOMAXPROCS; n == 1 forces the sequential path.
//
// When the option is omitted entirely, parallelism is on by default:
// builds over inputs of at least a few thousand tuples (the measured
// break-even; see docs/ARCHITECTURE.md) use GOMAXPROCS workers, smaller
// ones stay sequential to skip the scheduling overhead.
//
// Parallel preparation is bit-identical to sequential preparation —
// same π weights, bag contents and order, same Stats — so the only
// observable difference is latency. Passed to Compile it sets the
// handle's default (and drives the first epoch's build); passed to Run
// it overrides the default for the build that run triggers.
// Enumeration itself is unaffected.
func WithParallelism(n int) RunOption {
	return func(c *runConfig) {
		c.workers = parallel.Degree(n)
		c.workersSet = true
	}
}

// WithStatistics supplies the statistics catalog cost-based planning
// reads at Compile time. Atoms the catalog has no entry for (or whose
// entry's arity does not match) fall back to statistics collected
// directly from the query's relations. When the option is omitted
// entirely, cost-based planning is still on by default — Compile
// collects statistics from the relations on the spot. Passing a nil
// catalog disables cost-based planning altogether, reproducing the
// purely structural plans (min-degree/min-fill decomposition search,
// wcoj.SuggestOrder variable orders) bit for bit. A compile-only
// option: the type system rejects it on Run.
func WithStatistics(c *catalog.Catalog) CompileOption {
	return compileOption(func(cfg *runConfig) {
		cfg.cat = c
		cfg.catSet = true
	})
}

// WithCostModel supplies a pre-built cost model, overriding both
// WithStatistics and the default statistics collection. A compile-only
// option: the type system rejects it on Run.
func WithCostModel(m *catalog.CostModel) CompileOption {
	return compileOption(func(cfg *runConfig) { cfg.cm = m })
}

// WithSeed fixes the RNG seed of a Sample call, making its draws
// reproducible (equal seeds on equal handles draw equal answers). When
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
	cfg := runConfig{agg: SumCost, variant: Lazy, ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.agg == nil {
		return cfg, errors.New("repro: nil ranking function")
	}
	return cfg, core.CheckVariant(cfg.variant)
}

// Run executes the compiled plan and returns a ranked iterator. Always
// Close the iterator (idempotent) and check Err after Next reports
// false. Concurrent Runs on one handle are safe and share the cached
// per-ranking plan. A Run concurrent with ApplyDelta enumerates either
// entirely the old or entirely the new epoch.
func (p *Prepared) Run(opts ...RunOption) (Iterator, error) {
	cfg, err := newRunConfig(opts)
	if err != nil {
		return nil, err
	}
	st := p.state.Load()
	// The prepare span covers the first-run physical build (the π pass,
	// after bag materialisation for cyclic shapes); on a cache hit it
	// records ~0 duration, which is itself the signal a dashboard wants.
	// Without a trace on cfg.ctx every span call here is a no-op.
	pctx, prepSpan := obs.StartSpan(cfg.ctx, "prepare")
	d, err := p.planFor(st, cfg.agg, pctx, p.prepareWorkers(cfg, st.estTuples))
	prepSpan.End()
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
// everything). The iterator is closed before returning; a cancellation
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

// Count returns the number of join results without enumerating them:
// the sum, over the plan's trees, of each tree's count — a one-bag tree
// counts its bag, every other tree runs the T-DP's counting pass. An
// acyclic handle counts off its epoch; a cyclic one off any ranking's
// plan already built, building the SumCost plan (under WithContext)
// only when none is. Counting does not rank: the ranking, the variant
// and WithK are validated but do not change the count, and no weight is
// checked against the ranking's domain. The result is computed once per
// epoch.
func (p *Prepared) Count(opts ...RunOption) (int, error) {
	cfg, err := newRunConfig(opts)
	if err != nil {
		return 0, err
	}
	st := p.state.Load()
	if n := st.solutions.Load(); n >= 0 {
		return int(n), nil
	}
	for _, d := range st.plans.built() {
		return st.count(d), nil
	}
	pctx, prepSpan := obs.StartSpan(cfg.ctx, "prepare")
	d, err := p.planFor(st, SumCost, pctx, p.prepareWorkers(cfg, st.estTuples))
	prepSpan.End()
	if err != nil {
		return 0, err
	}
	return st.count(d), nil
}

// count records and returns the epoch's answer count, read off one of
// its plans.
func (st *planState) count(d *decomp.Plan) int {
	n := st.structure.NumSolutions(d)
	st.solutions.Store(int64(n))
	return n
}

// IsEmpty answers the Boolean query "does the join have any result?":
// Count is zero.
func (p *Prepared) IsEmpty(opts ...RunOption) (bool, error) {
	n, err := p.Count(opts...)
	return n == 0, err
}

// checkWeights rejects an epoch's weights on which agg is not monotone
// (ranking.CheckDomain: a non-positive weight under ProductCost), naming
// relation and row. It runs wherever a ranking's plan is built for an
// epoch (instantiate), as one scan of that epoch's weights, so a Run
// fails instead of enumerating in an order that depends on the variant,
// and an ApplyDelta that brings such a row under a warm ranking leaves
// the handle on its old epoch.
func (p *Prepared) checkWeights(agg ranking.Aggregate, rels []*relation.Relation) error {
	for i, r := range rels {
		if err := ranking.CheckDomain(agg, p.srcEdges[i].Name, r.Weights); err != nil {
			return fmt.Errorf("repro: %w", err)
		}
	}
	return nil
}

// planFor returns (building and caching on first use) the epoch's plan
// under agg. The ctx and worker count only matter to the Run that
// triggers the build; cache hits ignore them. A build is cancelable
// between node and bag tasks, and a canceled one fails with ctx.Err()
// and is dropped from the cache (the onceCache retry-on-cancel policy),
// so one run's cancellation never poisons the per-aggregate entry — the
// next Run rebuilds. Parallel builds are bit-identical to sequential
// ones, so the cached plan does not depend on which Run won the build.
func (p *Prepared) planFor(st *planState, agg ranking.Aggregate, ctx context.Context, workers int) (*decomp.Plan, error) {
	return st.plans.get(ctx, agg, func(a ranking.Aggregate) (*decomp.Plan, error) {
		d, _, err := p.instantiate(st, a, nil, ctx, workers)
		return d, err
	})
}

// instantiate builds the plan of epoch st under agg. old is the plan the
// previous epoch held for agg (nil: none): an atom tree patches its π
// pass from it, a tree of materialised bags is rebuilt whole
// (decomp.Epoch.Instantiate), and the DeltaStats say what was redone.
func (p *Prepared) instantiate(st *planState, agg ranking.Aggregate, old *decomp.Plan, ctx context.Context, workers int) (*decomp.Plan, decomp.DeltaStats, error) {
	if err := p.checkWeights(agg, st.srcRels); err != nil {
		return nil, decomp.DeltaStats{}, err
	}
	return st.structure.Instantiate(agg, old, p.prepareOpts(ctx, workers)...)
}

// prepareOpts are the options of one epoch build or plan instantiation.
func (p *Prepared) prepareOpts(ctx context.Context, workers int) []decomp.PrepareOption {
	return append([]decomp.PrepareOption{decomp.WithWorkers(workers), decomp.WithContext(ctx)}, p.costOpts...)
}

// ErrTrialBudget reports that Sample's rejection walk ran out of trials
// before drawing the requested number of samples — expected when the
// join is empty or its answer count sits far below its AGM bound. The
// samples drawn so far are still returned, and they are still uniform.
var ErrTrialBudget = sample.ErrTrialBudget

// sampleSeq feeds default seeds to Sample calls that pass no WithSeed.
var sampleSeq atomic.Uint64

// samplerFor returns the epoch's uniform answer sampler, building and
// caching it on first use: the query atoms are sorted into fresh tries
// and the AGM-optimal fractional edge cover (hypergraph.AGMCover)
// supplies the walk's per-prefix bounds. The build is independent of
// ranking functions and plan shape — it walks the original atoms — and
// costs one sort per atom, never a bag materialisation. Each epoch
// builds its own sampler over its own relations, so fixed-seed draws
// after a delta equal those of a cold handle on the same data.
func (p *Prepared) samplerFor(st *planState) (*sample.Sampler, []int, error) {
	st.samplerMu.Lock()
	defer st.samplerMu.Unlock()
	if st.samplerSet {
		return st.sampler, st.samplePerm, st.samplerErr
	}
	build := func() (*sample.Sampler, []int, error) {
		h := hypergraph.New(p.srcEdges...)
		atoms := make([]wcoj.Atom, len(p.srcEdges))
		sizes := make([]float64, len(p.srcEdges))
		for i, e := range p.srcEdges {
			atoms[i] = wcoj.Atom{Rel: st.srcRels[i], Vars: e.Vars}
			// Clamp empties to 1: the cover LP needs positive sizes, and
			// the sampler itself reports an empty relation as bound 0.
			sizes[i] = math.Max(1, float64(st.srcRels[i].Len()))
		}
		lambda, _, err := h.AGMCover(sizes)
		if err != nil {
			return nil, nil, err
		}
		s, err := sample.New(atoms, wcoj.SuggestOrder(atoms), lambda)
		if err != nil {
			return nil, nil, err
		}
		pos := make(map[string]int, len(s.Vars()))
		for i, v := range s.Vars() {
			pos[v] = i
		}
		perm := make([]int, len(p.shape.Attrs))
		for i, a := range p.shape.Attrs {
			j, ok := pos[a]
			if !ok {
				return nil, nil, fmt.Errorf("repro: output attribute %s missing from sampler order", a)
			}
			perm[i] = j
		}
		return s, perm, nil
	}
	st.sampler, st.samplePerm, st.samplerErr = build()
	st.samplerSet = true
	return st.sampler, st.samplePerm, st.samplerErr
}

// Sample draws up to n uniform random samples from the query's answer
// set without enumerating it (internal/sample's AGM rejection walk over
// the original atoms). Sampling is uniform over distinct variable
// assignments; each comes back as a Result in OutAttrs order whose
// weight aggregates one uniformly chosen witness row per atom under the
// run's ranking function — samples are not ranked. Honors WithContext,
// WithRanking and WithSeed; every call also advances the handle's
// cumulative cardinality estimate (PlanStats.EstCardinality). A join
// whose answer count is far below its AGM bound can exhaust the trial
// budget first: the samples drawn so far return with
// sample.ErrTrialBudget, and an empty join yields zero samples.
func (p *Prepared) Sample(n int, opts ...RunOption) ([]Result, error) {
	cfg, err := newRunConfig(opts)
	if err != nil {
		return nil, err
	}
	st := p.state.Load()
	s, perm, err := p.samplerFor(st)
	if err != nil {
		return nil, err
	}
	seed := cfg.seed
	if !cfg.seedSet {
		seed = sampleSeq.Add(1)
	}
	sctx, sampleSpan := obs.StartSpan(cfg.ctx, "sample")
	ans, err := s.Sample(sctx, n, seed, cfg.agg)
	sampleSpan.End()
	out := make([]Result, len(ans))
	for i, a := range ans {
		t := make(relation.Tuple, len(perm))
		for j, sp := range perm {
			t[j] = a.Tuple[sp]
		}
		out[i] = Result{Tuple: t, Weight: a.Weight}
	}
	return out, err
}
