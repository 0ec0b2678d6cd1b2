// Package dp builds the tree-based dynamic program (T-DP) that underlies
// the any-k algorithms of Part 3 of the tutorial. Given an acyclic join
// query, the relations are arranged along the join tree in DFS preorder
// and reduced by the bottom-up semi-join sweep. Each tree node's tuples
// are partitioned into *candidate groups* by their join key with the
// parent — empty on a tree edge whose nodes share no variable, such as
// one joining two components of a disconnected query, so the child is
// one group and the edge a product; every group carries the
// suffix-optimal weight π of its best member, where
//
//	π(u, t) = w(t) ⊕ Σ_{c ∈ children(u)} bestπ(group of c selected by t)
//
// computed bottom-up (⊕ is the ranking aggregate's combine). A solution
// assigns one tuple to every node such that adjacent tuples join; its
// weight is the aggregate of all node weights. The top-1 solution falls
// out of a greedy descent, and the enumeration algorithms in
// internal/core produce all remaining solutions in weight order.
//
// The bottom-up sweep alone suffices: every row it keeps joins some row
// of each child group it selects, so every descent from the root
// completes, and a row the top-down sweep would remove sits in a group
// that no parent row selects — never visited by enumeration, counting
// or sampling. The grouping is that sweep with the match kept: one index
// of a child's rows on its key with the parent decides which parent rows
// survive, and its groups are the child's candidate groups.
//
// Every pass over the T-DP runs on one bottom-up driver (sweep), level
// by level and, given a predecessor, only where a data delta reached.
// Four per-node kernels run on it: the build (linkNode, which reduces a
// node by its children and links its rows to their groups), π
// (Plan.InstantiateDelta), exact counts, which uniform sampling descends
// (TDP.Draw), and a semiring fold (Plan.Eval). A plan's counts are one
// artefact, built by their first reader and shared by every T-DP
// instantiated from the plan; NewPlanDelta carries a predecessor's
// forward along the dirty path.
//
// Each of the two build steps has one implementation that takes an
// optional predecessor — NewPlanDelta (lay out, then reduce and group in
// one pass) and Plan.InstantiateDelta (the π pass): given the previous
// epoch's plan or T-DP they redo only what a data delta reached, given
// none they build everything. NewPlan, Plan.Instantiate and Build are
// those functions with no predecessor.
package dp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/yannakakis"
)

// Plan is the aggregate-independent part of the compiled dynamic
// program: the bottom-up-reduced relations arranged along the join
// tree, the candidate grouping, and the parent→child group maps.
// Building it is the expensive step (one bottom-up pass that semi-joins
// and groups on one index per tree edge); Instantiate then derives a TDP
// for any ranking aggregate with a single bottom-up π pass. A Plan is
// immutable after NewPlan — but for its count memo, which fills once
// under its own lock — and safe to share across goroutines and
// instantiations.
//
// Both steps accept Options: WithWorkers(n) fans the per-node work out
// on a bounded pool, one depth level at a time, and WithContext(ctx)
// makes them cancelable between node tasks. Parallel builds are
// bit-identical to sequential ones — each node's computation runs
// unchanged on exactly one goroutine, only the interleaving across
// nodes varies — so π arrays, group bests, and every downstream
// enumeration are the same for any worker count.
type Plan struct {
	nodes    []*Node // Pi and Group bests left zero; filled per instantiation
	outAttrs []string
	emits    []emitSpec
	// levels partitions preorder positions by tree depth (levels[0] is
	// the root). Nodes of one level are pairwise unrelated, so a
	// level-synchronized sweep only reads state finalised by deeper
	// levels — the invariant the parallel driver (sweep) relies on.
	levels [][]int
	// counts is the plan's exact-count artefact, built at most once: by
	// its first reader, or by NewPlanDelta carrying a predecessor's
	// forward.
	counts *counts
}

// config collects the per-call options of NewPlan and Instantiate.
type config struct {
	ctx     context.Context
	workers int
}

// Option configures one NewPlan or Instantiate call. The defaults are
// fully sequential execution under context.Background().
type Option func(*config)

// WithWorkers sets how many workers the per-node tasks fan out on;
// n <= 0 selects GOMAXPROCS. The result is bit-identical to the
// sequential build for any worker count.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = parallel.Degree(n) }
}

// WithContext attaches a cancellation context: cancellation is checked
// between node tasks, and a canceled call returns ctx.Err() and no
// result.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

func newConfig(opts []Option) config {
	c := config{ctx: context.Background(), workers: 1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// TotalTuples is the number of tuples across all node relations of
// the plan — the input size of one Instantiate pass. The facade's
// default-parallelism threshold consults it to decide whether fanning
// the π computation out is worth the scheduling overhead.
func (p *Plan) TotalTuples() int {
	total := 0
	for _, n := range p.nodes {
		total += n.Rel.Len()
	}
	return total
}

// Empty reports whether the query has no results: the reduced root has
// no rows. No count is built.
func (p *Plan) Empty() bool { return p.nodes[0].Rel.Len() == 0 }

// NumSolutions is the number of the query's results, read off the
// plan's count memo (see Plan): the first reader of the plan or of any
// TDP instantiated from it builds the counts, every later one reads
// them. No ranking is instantiated. It fails with ErrCountOverflow when
// the count does not fit an int64.
func (p *Plan) NumSolutions() (int, error) { return p.counts.total(p.nodes) }

// TDP is the compiled dynamic program for one acyclic query instance.
type TDP struct {
	Agg ranking.Aggregate
	// Nodes in DFS preorder: Nodes[0] is the root; every node's parent
	// precedes it.
	Nodes []*Node
	// OutAttrs is the output schema (query variables in first-appearance
	// order over the preorder, unless Reorder set another).
	OutAttrs []string
	emits    []emitSpec
	counts   *counts // the plan's, shared by all its instantiations
	// cands maps a candidate-structure kind to its *Memo[Cands].
	cands sync.Map
}

// Node is one join-tree node of the T-DP.
type Node struct {
	// Rel is the bottom-up-reduced relation, renamed to query variables.
	Rel *relation.Relation
	// Parent is the preorder position of the parent (-1 for the root).
	Parent int
	// Children are preorder positions of children.
	Children []int
	// Groups partitions Rel's rows by their join key with the parent, in
	// order of the key's first appearance. The root has exactly one
	// group holding every row. The plan's groups are shared by every
	// T-DP instantiated from it.
	Groups Grouping
	// ChildGroup[ci][row] is the group index in child Children[ci]
	// selected by this node's row (-1 never occurs: the bottom-up sweep
	// keeps only rows that join every child).
	ChildGroup [][]int32
	// Pi[row] is the suffix-optimal weight of the subtree rooted here
	// when this node picks row. A leaf's π is its weight, so a leaf
	// shares Rel.Weights as its Pi.
	Pi []float64
	// BestPi[g] is the best Pi of group g's rows by the aggregate's
	// order: 8 B a group per instantiation, 0 for an empty group.
	BestPi []float64
}

// Grouping partitions a node's rows into candidate groups, each the rows
// sharing one parent key, in CSR form: one array of every group's rows
// (relation.Index's) and 4 B a group of offsets into it.
type Grouping struct {
	start []int32 // group g's rows are rows[start[g]:start[g+1]]
	rows  []int32
}

// OneGroup is the grouping of rows into a single group.
func OneGroup(rows []int32) Grouping {
	return Grouping{start: []int32{0, int32(len(rows))}, rows: rows}
}

// Len is the number of groups.
func (gs Grouping) Len() int { return max(len(gs.start)-1, 0) }

// Rows returns group g's rows, ascending: a window of one array shared
// by every group, to read, never to append to or reorder.
func (gs Grouping) Rows(g int32) []int32 {
	return gs.rows[gs.start[g]:gs.start[g+1]:gs.start[g+1]]
}

// emitSpec names the column col of node's row that one output position
// takes; the emit map holds output position i's spec at index i.
type emitSpec struct {
	node int
	col  int
}

// Build compiles the T-DP for the query with the given ranking aggregate.
// The query result is empty iff the root node ends up with zero rows.
// It is NewPlan followed by Instantiate; prepared execution keeps the
// Plan and re-instantiates per aggregate instead.
func Build(q *yannakakis.Query, agg ranking.Aggregate) (*TDP, error) {
	p, err := NewPlan(q)
	if err != nil {
		return nil, err
	}
	return p.Instantiate(agg)
}

// NewPlan runs the aggregate-independent compilation from scratch:
// NewPlanDelta with no predecessor.
func NewPlan(q *yannakakis.Query, opts ...Option) (*Plan, error) {
	p, _, err := NewPlanDelta(q, nil, nil, opts...)
	return p, err
}

// NewPlanDelta is the aggregate-independent compilation — the only
// implementation: preorder layout along the join tree, then one
// bottom-up pass of the build kernel (linkNode) on the plan's driver
// (sweep).
//
// old is the predecessor: a plan for the same query shape whose
// relations have since received delta batches, with changedBase
// flagging, per tree node (hyperedge index), the base relations that
// differ from the ones old was built on. A node then reruns only if its
// base changed or a child's reduced rows differ, and the pass stops
// where a rerun node's rows come out as before (appends that dangle,
// deletes of dangling rows); every other node is old's, shared whole,
// and a child's groups are rebuilt only when its own rows changed. A nil
// old — or one whose tree no longer matches q's, which a pure data delta
// cannot cause — means no predecessor: changedBase is ignored. With a
// predecessor, a changedBase of the wrong length is an error.
//
// What holds for both inputs:
//  1. Without a predecessor no comparison work is done and no old plan
//     is consulted: every node runs and is flagged Changed.
//  2. The plan is bit-identical on both inputs.
//  3. Spans are named by the predecessor: "plan-build" › "reduce"
//     without one; "plan-delta" (attributes nodes, regrouped) ›
//     "reduce-delta" with one.
//  4. Cancellation of the WithContext context is checked between node
//     tasks.
func NewPlanDelta(q *yannakakis.Query, old *Plan, changedBase []bool, opts ...Option) (*Plan, *DeltaStats, error) {
	cfg := newConfig(opts)
	tree := q.Tree
	m := len(tree.Order)

	// posOf maps hypergraph edge index -> preorder position.
	posOf := make([]int, m)
	for pos, edge := range tree.Order {
		posOf[edge] = pos
	}
	t := &Plan{nodes: make([]*Node, m)}
	seen := make(map[string]bool)
	for pos, edge := range tree.Order {
		n := &Node{Parent: -1}
		if p := tree.Parent[edge]; p >= 0 {
			n.Parent = posOf[p]
		}
		for _, c := range tree.Children[edge] {
			n.Children = append(n.Children, posOf[c])
		}
		if len(n.Children) > 0 {
			n.ChildGroup = make([][]int32, len(n.Children))
		}
		t.nodes[pos] = n
		// Output schema and emit map.
		for col, v := range q.H.Edges[edge].Vars {
			if !seen[v] {
				seen[v] = true
				t.emits = append(t.emits, emitSpec{node: pos, col: col})
				t.outAttrs = append(t.outAttrs, v)
			}
		}
	}
	// Depth levels, mapped in place from tree-node ids to preorder
	// positions (each level stays in preorder sequence, i.e. ascending).
	t.levels = tree.Levels()
	for _, lv := range t.levels {
		for i, u := range lv {
			lv[i] = posOf[u]
		}
	}

	st := &DeltaStats{Nodes: m, Changed: make([]bool, m)}
	name, reduce := "plan-build", "reduce"
	var pred *predecessor
	switch {
	case !t.sameTree(old, q):
		old = nil
		for pos := range st.Changed {
			st.Changed[pos] = true
		}
	case len(changedBase) != m:
		return nil, nil, fmt.Errorf("dp: NewPlanDelta got %d changed flags for %d tree nodes", len(changedBase), m)
	default:
		name, reduce = "plan-delta", "reduce-delta"
		pred = &predecessor{
			changed: make([]bool, m),
			keep:    func(pos int) { t.nodes[pos] = old.nodes[pos] },
			differs: func(pos int, _ bool) bool {
				n, o := t.nodes[pos], old.nodes[pos]
				if st.Changed[pos] = !relation.SameContent(n.Rel, o.Rel); !st.Changed[pos] {
					n.Rel, n.Groups = o.Rel, o.Groups
				}
				return st.Changed[pos]
			},
		}
		for pos, edge := range tree.Order {
			pred.changed[pos] = changedBase[edge]
		}
	}
	var sp *obs.Span
	cfg.ctx, sp = obs.StartSpan(cfg.ctx, name)
	defer sp.End()
	rctx, rsp := obs.StartSpan(cfg.ctx, reduce)
	_, err := sweep(config{ctx: rctx, workers: cfg.workers}, t.levels, t.nodes, func(pos int) error { return linkNode(q, t.nodes, st.Changed, pos) }, pred)
	rsp.End()
	if err != nil {
		return nil, nil, err
	}
	if root := t.nodes[0]; root.Groups.start == nil {
		rows := make([]int32, root.Rel.Len())
		for i := range rows {
			rows[i] = int32(i)
		}
		root.Groups = OneGroup(rows)
	}
	for _, c := range st.Changed {
		if c {
			st.Regrouped++
		}
	}
	if old != nil {
		sp.SetAttr("nodes", strconv.Itoa(st.Nodes))
		sp.SetAttr("regrouped", strconv.Itoa(st.Regrouped))
	}
	t.counts = &counts{levels: t.levels}
	if old != nil && old.counts.done.Load() {
		// Someone read the predecessor's counts, so this plan's will be
		// read too: carry them forward along the dirty path.
		if st.Recounted, err = t.counts.count(cfg, t.nodes, old.counts, st.Changed); err != nil && !errors.Is(err, ErrCountOverflow) {
			return nil, nil, err
		}
	}
	return t, st, nil
}

// linkNode is the build kernel: the bottom-up semi-join with the match
// kept. Per child it builds one index, on the attributes the child
// shares with node pos, whose groups become the child's Groups when the
// child's rows are new (fresh); each row of pos's input is probed once
// per child, kept if it finds every child, and mapped to the groups it
// found. A child that shares no attribute is indexed on the empty key:
// one group holding all its rows, or none when it has none, so every
// row of pos selects that group or none survives — the edge is a
// product, enumerated, never materialised. A node that drops no row
// keeps its input relation, uncopied. It writes only pos's Rel and
// ChildGroup and its children's Groups.
func linkNode(q *yannakakis.Query, nodes []*Node, fresh []bool, pos int) error {
	n, in := nodes[pos], q.Atom(q.Tree.Order[pos])
	rows := in.Len()
	n.Rel = in
	if rows == 0 {
		n.Rel = in.Subset(nil) // every empty node has the same nil arrays
	}
	k := len(n.Children)
	if k == 0 {
		return nil
	}
	ixs, cols := make([]*relation.Index, k), make([][]int, k)
	for ci, c := range n.Children {
		child := nodes[c]
		shared := in.SharedAttrs(child.Rel)
		// The index is dropped on return: the plan keeps its row arrays,
		// which do not reference the probe table. shared are attributes
		// of both relations, so neither lookup fails.
		ixs[ci] = relation.MustIndex(child.Rel, shared...)
		cols[ci], _ = in.AttrIndexes(shared)
		if fresh[c] {
			start, rows := ixs[ci].CSR()
			child.Groups = Grouping{start: start, rows: rows}
		}
	}
	// cg[ci*rows+j] is the group of child ci that the j-th kept row
	// selects; a row that misses some child is overwritten by the next.
	cg := make([]int32, k*rows)
	kept := make([]int32, 0, rows)
probe:
	for row, tp := range in.Tuples {
		for ci, ix := range ixs {
			g := ix.FindBy(tp, cols[ci])
			if g < 0 {
				continue probe
			}
			cg[ci*rows+len(kept)] = int32(g)
		}
		kept = append(kept, int32(row))
	}
	s := len(kept)
	if s < rows {
		n.Rel = in.Subset(kept)
	}
	if 2*s < rows {
		// Few rows kept: copy their maps out rather than pin an array
		// sized by the input.
		packed := make([]int32, k*s)
		for ci := range k {
			copy(packed[ci*s:], cg[ci*rows:ci*rows+s])
		}
		cg, rows = packed, s
	}
	for ci := range n.ChildGroup {
		n.ChildGroup[ci] = cg[ci*rows : ci*rows+s : ci*rows+s]
	}
	return nil
}

// Instantiate derives the T-DP for one ranking aggregate from scratch:
// InstantiateDelta with no predecessor.
func (p *Plan) Instantiate(agg ranking.Aggregate, opts ...Option) (*TDP, error) {
	t, _, err := p.InstantiateDelta(agg, nil, nil, opts...)
	return t, err
}

// InstantiateDelta derives the T-DP for one ranking aggregate — the
// only implementation of the π pass: the π kernel (instantiateNode) on
// the plan's driver (sweep), linear in the node relations. The plan is
// not modified, so instantiations for different aggregates may proceed
// from one plan, and all of them read the plan's counts.
//
// old is the predecessor: an instantiation, for the same aggregate, of
// the plan p was diffed against, with changed the Changed vector of the
// NewPlanDelta call that produced p. π is then recomputed only from the
// nodes whose reduced content changed, up to where a recomputed node's
// group bests come out bit-identical to the old epoch's; clean nodes
// share the old node wholesale. A nil old means no predecessor (changed
// is ignored); with one, a shape mismatch is an error. The int result
// counts the nodes whose π pass ran.
//
// What holds for both inputs:
//  1. The T-DP is bit-identical on both: π arrays, group bests and maps.
//  2. The span is named by the predecessor: "instantiate" without one,
//     "instantiate-delta" (attributes recomputed, reused) with one;
//     both carry the ranking attribute.
//  3. A canceled pass returns ctx.Err() of the WithContext context and
//     no TDP.
func (p *Plan) InstantiateDelta(agg ranking.Aggregate, old *TDP, changed []bool, opts ...Option) (*TDP, int, error) {
	m := len(p.nodes)
	name := "instantiate"
	if old != nil {
		if len(old.Nodes) != m || len(changed) != m {
			return nil, 0, fmt.Errorf("dp: InstantiateDelta shape mismatch (%d plan nodes, %d old, %d changed flags)", m, len(old.Nodes), len(changed))
		}
		name = "instantiate-delta"
	}
	cfg := newConfig(opts)
	var sp *obs.Span
	cfg.ctx, sp = obs.StartSpan(cfg.ctx, name)
	sp.SetAttr("ranking", agg.Name())
	defer sp.End()
	t := &TDP{Agg: agg, Nodes: make([]*Node, m), OutAttrs: p.outAttrs, emits: p.emits, counts: p.counts}
	var pred *predecessor
	if old != nil {
		pred = &predecessor{
			changed: changed,
			// A clean node is immutable and what a recompute would give.
			keep: func(pos int) { t.Nodes[pos] = old.Nodes[pos] },
			differs: func(pos int, contentChanged bool) bool {
				return groupBestsDiffer(t.Nodes[pos], old.Nodes[pos], contentChanged)
			},
		}
	}
	recomputed, err := sweep(cfg, p.levels, p.nodes, func(pos int) error { return p.instantiateNode(t, pos) }, pred)
	if err != nil {
		return nil, 0, err
	}
	if old != nil {
		sp.SetAttr("recomputed", strconv.Itoa(recomputed))
		sp.SetAttr("reused", strconv.Itoa(m-recomputed))
	}
	return t, recomputed, nil
}

// instantiateNode is the π kernel: it gives node pos of t the plan's
// skeleton, groups included, and computes its π array and per-group
// bests. It reads only the group bests of pos's children (one level
// deeper, finalised behind the previous level's barrier) and writes only
// pos's own state.
func (p *Plan) instantiateNode(t *TDP, pos int) error {
	sn, agg := p.nodes[pos], t.Agg
	n := &Node{
		Rel:        sn.Rel,
		Parent:     sn.Parent,
		Children:   sn.Children,
		ChildGroup: sn.ChildGroup,
		Groups:     sn.Groups,
		Pi:         sn.Rel.Weights,
		BestPi:     make([]float64, sn.Groups.Len()),
	}
	t.Nodes[pos] = n
	if len(n.Children) > 0 {
		n.Pi = make([]float64, sn.Rel.Len())
		for row := range n.Rel.Tuples {
			pi := n.Rel.Weights[row]
			for ci, c := range n.Children {
				gi := n.ChildGroup[ci][row]
				if gi < 0 {
					return fmt.Errorf("dp: dangling row survived the bottom-up sweep at node %d", pos)
				}
				pi = agg.Combine(pi, t.Nodes[c].BestPi[gi])
			}
			n.Pi[row] = pi
		}
	}
	for gi := range n.BestPi {
		if rows := n.Groups.Rows(int32(gi)); len(rows) > 0 {
			n.BestPi[gi] = n.Pi[rows[bestIn(agg, n.Pi, rows)]]
		}
	}
	return nil
}

// bestIn returns the position within rows of the first row whose pi is
// best by agg's order; rows is not empty.
func bestIn(agg ranking.Aggregate, pi []float64, rows []int32) int {
	best := 0
	for i := 1; i < len(rows); i++ {
		if agg.Less(pi[rows[i]], pi[rows[best]]) {
			best = i
		}
	}
	return best
}

// Empty reports whether the query has no results.
func (t *TDP) Empty() bool { return t.Nodes[0].Rel.Len() == 0 }

// TopWeight returns the weight of the best solution. It must not be
// called when Empty.
func (t *TDP) TopWeight() float64 { return t.Nodes[0].BestPi[0] }

// GroupFor returns the group index of node pos selected by the current
// assignment of its parent (rows must have the parent's row filled in).
// For the root it is always 0.
func (t *TDP) GroupFor(pos int, rows []int32) int32 {
	n := t.Nodes[pos]
	if n.Parent < 0 {
		return 0
	}
	return t.Nodes[n.Parent].ChildGroup[childIndex(t.Nodes, n.Parent, pos)][rows[n.Parent]]
}

func childIndex(nodes []*Node, p, c int) int {
	for i, cc := range nodes[p].Children {
		if cc == c {
			return i
		}
	}
	panic("dp: not a child")
}

// SolutionWeight computes the aggregate weight of a full assignment.
func (t *TDP) SolutionWeight(rows []int32) float64 {
	w := t.Agg.Identity()
	for pos, n := range t.Nodes {
		w = t.Agg.Combine(w, n.Rel.Weights[rows[pos]])
	}
	return w
}

// Reorder makes t emit its tuples in the schema attrs, each of which must
// be one of OutAttrs. Only t's own emit map changes: the Plan t was
// instantiated from, and every other instantiation of it, keep theirs.
func (t *TDP) Reorder(attrs []string) error {
	if slices.Equal(attrs, t.OutAttrs) {
		return nil
	}
	emits := make([]emitSpec, len(attrs))
	for i, a := range attrs {
		j := slices.Index(t.OutAttrs, a)
		if j < 0 {
			return fmt.Errorf("dp: attribute %s missing from the T-DP's output %v", a, t.OutAttrs)
		}
		emits[i] = t.emits[j]
	}
	t.OutAttrs, t.emits = attrs, emits
	return nil
}

// EmitInto renders a full assignment as an output tuple into dst, which
// holds len(OutAttrs) values and belongs to the caller.
func (t *TDP) EmitInto(dst relation.Tuple, rows []int32) {
	for i, sp := range t.emits {
		dst[i] = t.Nodes[sp.node].Rel.Tuples[rows[sp.node]][sp.col]
	}
}
