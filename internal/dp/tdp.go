// Package dp builds the tree-based dynamic program (T-DP) that underlies
// the any-k algorithms of Part 3 of the tutorial. Given an acyclic join
// query, the relations are full-reduced and arranged along the join tree
// in DFS preorder. Each tree node's tuples are partitioned into
// *candidate groups* by their join key with the parent; every group
// carries the suffix-optimal weight π of its best member, where
//
//	π(u, t) = w(t) ⊕ Σ_{c ∈ children(u)} bestπ(group of c selected by t)
//
// computed bottom-up (⊕ is the ranking aggregate's combine). A solution
// assigns one tuple to every node such that adjacent tuples join; its
// weight is the aggregate of all node weights. The top-1 solution falls
// out of a greedy descent, and the enumeration algorithms in
// internal/core produce all remaining solutions in weight order.
//
// Each of the two build steps has one implementation that takes an
// optional predecessor — NewPlanDelta (reduce, lay out, group) and
// Plan.InstantiateDelta (the π pass): given the previous epoch's plan
// or T-DP they redo only what a data delta reached, given none they
// build everything. NewPlan, Plan.Instantiate and Build are those
// functions with no predecessor.
package dp

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/yannakakis"
)

// Plan is the aggregate-independent part of the compiled dynamic
// program: the full-reduced relations arranged along the join tree, the
// candidate grouping, and the parent→child group maps. Building it is
// the expensive step (semi-join sweeps plus hash grouping); Instantiate
// then derives a TDP for any ranking aggregate with a single bottom-up
// π pass. A Plan is immutable after NewPlan and safe to share across
// goroutines and instantiations.
//
// Both steps accept Options: WithWorkers(n) fans the per-node work out
// on a bounded pool (the grouping of NewPlan across all nodes at once;
// the π pass of Instantiate one depth level at a time), and
// WithContext(ctx) makes them cancelable between node tasks. Parallel
// builds are bit-identical to sequential ones — each node's computation
// runs unchanged on exactly one goroutine, only the interleaving across
// nodes varies — so π arrays, group bests, and every downstream
// enumeration are the same for any worker count.
type Plan struct {
	nodes    []*Node // Pi and Group bests left zero; filled per instantiation
	outAttrs []string
	emits    []emitSpec
	// levels partitions preorder positions by tree depth (levels[0] is
	// the root). Nodes of one level are pairwise unrelated, so a
	// level-synchronized sweep only reads π state finalised by deeper
	// levels — the invariant the parallel Instantiate relies on.
	levels [][]int
	// red keeps the reducer's bottom-up intermediates (aligned with
	// tree node ids, not preorder positions) so NewPlanDelta can re-run
	// semi-joins only along the paths a delta reached.
	red *yannakakis.Reduction
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

// TotalTuples is the number of tuples across all reduced relations of
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

// NumSolutions counts the query's results from the reduced plan alone —
// no ranking instantiation needed.
func (p *Plan) NumSolutions() int { return countSolutions(p.nodes) }

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
}

// Node is one join-tree node of the T-DP.
type Node struct {
	// Rel is the full-reduced relation, renamed to query variables.
	Rel *relation.Relation
	// Parent is the preorder position of the parent (-1 for the root).
	Parent int
	// Children are preorder positions of children.
	Children []int
	// Groups partitions Rel's rows by their join key with the parent, in
	// order of the key's first appearance. The root has exactly one
	// group holding every row. All Groups[g].Rows of a node are windows
	// of one array (relation.Index's CSR rows): read them, never append
	// to or reorder one.
	Groups []Group
	// GroupOfRow maps each row to its group index.
	GroupOfRow []int32
	// ChildGroup[ci][row] is the group index in child Children[ci]
	// selected by this node's row (-1 never occurs after full reduction).
	ChildGroup [][]int32
	// Pi[row] is the suffix-optimal weight of the subtree rooted here
	// when this node picks row.
	Pi []float64
}

// Group is a candidate set: the rows of a node sharing one parent key.
type Group struct {
	Rows []int32
	// BestIdx is the position within Rows of the row minimising Pi
	// (by the aggregate's order); BestPi is that value.
	BestIdx int32
	BestPi  float64
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
// implementation: full reduction, preorder layout along the join tree,
// candidate grouping by parent key, and the parent-row → child-group
// maps. The per-node grouping is independent across nodes — each task
// hashes its own rows and writes only its own node's Groups/GroupOfRow
// plus its private ChildGroup slot on the parent — so it fans out across
// all nodes at once.
//
// old is the predecessor: a plan for the same query shape whose
// relations have since received delta batches, with changedBase
// flagging, per tree node (hyperedge index), the base relations that
// differ from the ones old was built on. The semi-join sweeps then
// re-run only along paths through changed relations (see
// yannakakis.ReduceDelta), and the hash grouping is redone only for
// nodes whose reduced content changed, or whose parent's did (the
// parent-row → child-group map hangs off both endpoints); every other
// node shares the old plan's relation, grouping and child map. A nil
// old — or one whose tree no longer matches q's, which a pure data delta
// cannot cause — means no predecessor: changedBase is ignored.
// With a predecessor, a changedBase of the wrong length is an error.
//
// What holds for both inputs:
//  1. Without a predecessor no comparison work is done and no old plan
//     is consulted: every node goes on the grouping work list behind a
//     nil check, and that m-element list is the only extra allocation.
//  2. The plan is bit-identical on both inputs: reduced relations,
//     groupings, child maps, levels and schema.
//  3. Spans are named by the predecessor: "plan-build" › "reduce",
//     "group" without one; "plan-delta" (attributes nodes, regrouped) ›
//     "reduce-delta" with one.
//  4. Reduction and grouping run under the WithContext context, with
//     cancellation checked between node tasks (parallel.ForEach).
func NewPlanDelta(q *yannakakis.Query, old *Plan, changedBase []bool, opts ...Option) (*Plan, *DeltaStats, error) {
	cfg := newConfig(opts)
	tree := q.Tree
	m := len(tree.Order)

	// posOf maps hypergraph edge index -> preorder position.
	posOf := make([]int, m)
	for pos, edge := range tree.Order {
		posOf[edge] = pos
	}

	name := "plan-build"
	var oldRed *yannakakis.Reduction
	if !planMatchesTree(old, q, posOf) {
		old = nil
	} else {
		if len(changedBase) != m {
			return nil, nil, fmt.Errorf("dp: NewPlanDelta got %d changed flags for %d tree nodes", len(changedBase), m)
		}
		name, oldRed = "plan-delta", old.red
	}
	var sp *obs.Span
	cfg.ctx, sp = obs.StartSpan(cfg.ctx, name)
	defer sp.End()
	red, dirty, err := q.ReduceDelta(cfg.ctx, cfg.workers, oldRed, changedBase)
	if err != nil {
		return nil, nil, err
	}

	t := &Plan{nodes: make([]*Node, m), red: red}
	st := &DeltaStats{Nodes: m, Changed: make([]bool, m)}
	for pos, edge := range tree.Order {
		// A clean node's red.Final aliases the old epoch's relation, so
		// clean subtrees share one allocation across epochs.
		n := &Node{Rel: red.Final[edge], Parent: -1}
		if p := tree.Parent[edge]; p >= 0 {
			n.Parent = posOf[p]
		}
		for _, c := range tree.Children[edge] {
			n.Children = append(n.Children, posOf[c])
		}
		if len(n.Children) > 0 {
			// Preallocated so concurrent grouping tasks write disjoint
			// ChildGroup slots without racing on the slice header.
			n.ChildGroup = make([][]int32, len(n.Children))
		}
		t.nodes[pos] = n
		st.Changed[pos] = dirty[edge]
	}

	// Depth levels, mapped from tree-node ids to preorder positions
	// (each level stays in preorder sequence, i.e. ascending positions).
	for _, lv := range tree.Levels() {
		poss := make([]int, len(lv))
		for i, u := range lv {
			poss[i] = posOf[u]
		}
		t.levels = append(t.levels, poss)
	}

	// Output schema and emit map.
	seen := make(map[string]bool)
	for pos, n := range t.nodes {
		for col, v := range n.Rel.Attrs {
			if !seen[v] {
				seen[v] = true
				t.emits = append(t.emits, emitSpec{node: pos, col: col})
				t.outAttrs = append(t.outAttrs, v)
			}
		}
	}

	// Group rows by parent key, one independent task per node that
	// cannot take its grouping from the predecessor.
	regroup := make([]int, 0, m)
	for pos, n := range t.nodes {
		if old != nil && !st.Changed[pos] && (n.Parent < 0 || !st.Changed[n.Parent]) {
			// Reused slots are filled before the fan-out so a concurrent
			// groupNode for a sibling never reads a nil ChildGroup slot.
			reuseGrouping(t.nodes, old.nodes, pos)
			continue
		}
		regroup = append(regroup, pos)
	}
	st.Regrouped = len(regroup)
	gctx := cfg.ctx
	if old == nil {
		var gsp *obs.Span
		gctx, gsp = obs.StartSpan(cfg.ctx, "group")
		defer gsp.End()
	} else {
		sp.SetAttr("nodes", strconv.Itoa(st.Nodes))
		sp.SetAttr("regrouped", strconv.Itoa(st.Regrouped))
	}
	err = parallel.ForEach(gctx, cfg.workers, len(regroup), func(i int) error {
		return groupNode(t.nodes, regroup[i])
	})
	if err != nil {
		return nil, nil, err
	}
	return t, st, nil
}

// groupNode partitions node pos's rows into candidate groups by their
// join key with the parent and resolves the parent's rows to those
// groups. It writes only pos's own Groups/GroupOfRow and the
// ChildGroup slot the parent reserves for pos, so tasks for different
// nodes never touch the same memory.
func groupNode(nodes []*Node, pos int) error {
	n := nodes[pos]
	if n.Parent < 0 {
		rows := make([]int32, n.Rel.Len())
		for i := range rows {
			rows[i] = int32(i)
		}
		n.Groups = []Group{{Rows: rows}}
		n.GroupOfRow = make([]int32, n.Rel.Len())
		return nil
	}
	parent := nodes[n.Parent]
	shared := parent.Rel.SharedAttrs(n.Rel)
	if len(shared) == 0 {
		return fmt.Errorf("dp: node %d shares no attributes with its parent (tree edge would be a cartesian product)", pos)
	}
	// The index is dropped on return: the plan keeps its row arrays,
	// which do not reference the probe table.
	ix, err := relation.NewIndex(n.Rel, shared...)
	if err != nil {
		return err
	}
	n.GroupOfRow = ix.GroupOf()
	n.Groups = make([]Group, ix.Keys())
	for g := range n.Groups {
		n.Groups[g].Rows = ix.Rows(g)
	}
	// Parent rows resolve to this node's groups.
	pCols, err := parent.Rel.AttrIndexes(shared)
	if err != nil {
		return err
	}
	cg := make([]int32, parent.Rel.Len())
	for row, tp := range parent.Rel.Tuples {
		// -1 is a dangling parent row: impossible after full reduction.
		cg[row] = int32(ix.FindBy(tp, pCols))
	}
	parent.ChildGroup[childIndex(nodes, n.Parent, pos)] = cg
	return nil
}

// Instantiate derives the T-DP for one ranking aggregate from scratch:
// InstantiateDelta with no predecessor.
func (p *Plan) Instantiate(agg ranking.Aggregate, opts ...Option) (*TDP, error) {
	t, _, err := p.InstantiateDelta(agg, nil, nil, opts...)
	return t, err
}

// InstantiateDelta derives the T-DP for one ranking aggregate — the
// only implementation of the π pass: it copies the plan's skeleton
// (sharing the reduced relations, groupings, and child maps) and runs
// the bottom-up π computation, linear in the reduced database. The plan
// is not modified, so instantiations for different aggregates may
// proceed from one plan. The pass is level-synchronized: the nodes of a
// depth level — whose π values depend only on deeper levels, already
// finalised behind a barrier — fan out on the pool, each computed by
// exactly one task running the unchanged sequential loop.
//
// old is the predecessor: an instantiation, for the same aggregate, of
// the plan p was diffed against, with changed the Changed vector of the
// NewPlanDelta call that produced p. The pass then recomputes π only
// from the nodes whose reduced content changed, and stops propagating
// upward as soon as a recomputed node's per-group bests come out
// bit-identical to the old epoch's — the parent's π inputs are then
// provably unchanged; clean nodes share the old node wholesale. A nil
// old means no predecessor (changed is ignored); with one, a shape
// mismatch is an error. The int result counts the nodes whose π pass
// ran.
//
// What holds for both inputs:
//  1. Without a predecessor no comparison work is done: every level is
//     its own work list, groupBestsDiffer is never called, and nothing
//     is allocated beyond the nodes and their π arrays.
//  2. The T-DP is bit-identical on both inputs: π arrays, group bests
//     and maps.
//  3. The span is named by the predecessor: "instantiate" without one,
//     "instantiate-delta" (attributes recomputed, reused) with one;
//     both carry the ranking attribute.
//  4. The pass runs under the WithContext context, with cancellation
//     checked between node tasks; a canceled pass returns ctx.Err() and
//     no TDP.
func (p *Plan) InstantiateDelta(agg ranking.Aggregate, old *TDP, changed []bool, opts ...Option) (*TDP, int, error) {
	m := len(p.nodes)
	name := "instantiate"
	var bestsChanged []bool // per position, read by the parent's level
	if old != nil {
		if len(old.Nodes) != m || len(changed) != m {
			return nil, 0, fmt.Errorf("dp: InstantiateDelta shape mismatch (%d plan nodes, %d old, %d changed flags)", m, len(old.Nodes), len(changed))
		}
		name, bestsChanged = "instantiate-delta", make([]bool, m)
	}
	cfg := newConfig(opts)
	var sp *obs.Span
	cfg.ctx, sp = obs.StartSpan(cfg.ctx, name)
	sp.SetAttr("ranking", agg.Name())
	defer sp.End()
	t := &TDP{Agg: agg, Nodes: make([]*Node, m), OutAttrs: p.outAttrs, emits: p.emits}
	recomputed := 0

	// Deepest level first: children of a node always sit exactly one
	// level deeper, so their group bests are final when its level runs.
	for li := len(p.levels) - 1; li >= 0; li-- {
		work := p.levels[li]
		if old != nil {
			work = nil
			for _, pos := range p.levels[li] {
				stale := changed[pos]
				for _, c := range p.nodes[pos].Children {
					stale = stale || bestsChanged[c]
				}
				if stale {
					work = append(work, pos)
				} else {
					// Clean subtree: the old node (π array, bests, maps) is
					// immutable after its build and identical to what a
					// recompute would produce — share it wholesale.
					t.Nodes[pos] = old.Nodes[pos]
				}
			}
		}
		for _, pos := range work {
			sn := p.nodes[pos]
			t.Nodes[pos] = &Node{
				Rel:        sn.Rel,
				Parent:     sn.Parent,
				Children:   sn.Children,
				GroupOfRow: sn.GroupOfRow,
				ChildGroup: sn.ChildGroup,
				// Groups are value structs: copying the slice shares each
				// group's Rows but gives this instantiation its own
				// BestIdx/BestPi fields.
				Groups: append([]Group(nil), sn.Groups...),
			}
		}
		recomputed += len(work)
		err := parallel.ForEach(cfg.ctx, cfg.workers, len(work), func(i int) error {
			pos := work[i]
			if err := instantiateNode(t, agg, pos); err != nil {
				return err
			}
			if old != nil {
				bestsChanged[pos] = groupBestsDiffer(t.Nodes[pos], old.Nodes[pos], changed[pos])
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	if old != nil {
		sp.SetAttr("recomputed", strconv.Itoa(recomputed))
		sp.SetAttr("reused", strconv.Itoa(m-recomputed))
	}
	return t, recomputed, nil
}

// instantiateNode computes node pos's π array and per-group bests. It
// reads only the group bests of pos's children (one level deeper,
// finalised behind the previous level's barrier) and writes only pos's
// own state.
func instantiateNode(t *TDP, agg ranking.Aggregate, pos int) error {
	n := t.Nodes[pos]
	n.Pi = make([]float64, n.Rel.Len())
	for row := range n.Rel.Tuples {
		pi := n.Rel.Weights[row]
		for ci, c := range n.Children {
			gi := n.ChildGroup[ci][row]
			if gi < 0 {
				return fmt.Errorf("dp: dangling row survived full reduction at node %d", pos)
			}
			pi = agg.Combine(pi, t.Nodes[c].Groups[gi].BestPi)
		}
		n.Pi[row] = pi
	}
	for gi := range n.Groups {
		g := &n.Groups[gi]
		if len(g.Rows) == 0 {
			continue
		}
		g.BestIdx = 0
		g.BestPi = n.Pi[g.Rows[0]]
		for i := 1; i < len(g.Rows); i++ {
			if agg.Less(n.Pi[g.Rows[i]], g.BestPi) {
				g.BestIdx = int32(i)
				g.BestPi = n.Pi[g.Rows[i]]
			}
		}
	}
	return nil
}

// Empty reports whether the query has no results.
func (t *TDP) Empty() bool { return t.Nodes[0].Rel.Len() == 0 }

// TopWeight returns the weight of the best solution. It must not be
// called when Empty.
func (t *TDP) TopWeight() float64 { return t.Nodes[0].Groups[0].BestPi }

// GroupFor returns the group index of node pos selected by the current
// assignment of its parent (rows must have the parent's row filled in).
// For the root it is always 0.
func (t *TDP) GroupFor(pos int, rows []int32) int32 {
	n := t.Nodes[pos]
	if n.Parent < 0 {
		return 0
	}
	parent := t.Nodes[n.Parent]
	ci := 0
	for i, c := range parent.Children {
		if c == pos {
			ci = i
			break
		}
	}
	return parent.ChildGroup[ci][rows[n.Parent]]
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

// Emit renders a full assignment as an output tuple.
func (t *TDP) Emit(rows []int32) relation.Tuple {
	out := make(relation.Tuple, len(t.OutAttrs))
	for i, sp := range t.emits {
		out[i] = t.Nodes[sp.node].Rel.Tuples[rows[sp.node]][sp.col]
	}
	return out
}

// NumSolutions counts the solutions of the T-DP by a bottom-up counting
// pass; tests use it as the oracle for enumeration length.
func (t *TDP) NumSolutions() int { return countSolutions(t.Nodes) }

func countSolutions(nodes []*Node) int {
	m := len(nodes)
	counts := make([][]int, m)
	for pos := m - 1; pos >= 0; pos-- {
		n := nodes[pos]
		counts[pos] = make([]int, n.Rel.Len())
		for row := range n.Rel.Tuples {
			c := 1
			for ci, child := range n.Children {
				gi := n.ChildGroup[ci][row]
				sub := 0
				for _, r := range nodes[child].Groups[gi].Rows {
					sub += counts[child][r]
				}
				c *= sub
			}
			counts[pos][row] = c
		}
	}
	total := 0
	for _, c := range counts[0] {
		total += c
	}
	return total
}
