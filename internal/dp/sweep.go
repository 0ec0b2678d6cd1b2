package dp

import (
	"errors"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// predecessor is a sweep's predecessor: the nodes whose own input
// changed, how a kernel gives a clean node the predecessor's result, and
// whether a recomputed node shows its parent other inputs than before.
type predecessor struct {
	changed []bool
	keep    func(pos int)
	differs func(pos int, contentChanged bool) bool
}

// sweep is the one bottom-up driver of the T-DP, shared by the plan
// build, the π pass, the exact count and the semiring fold. It runs
// kernel once per node, deepest level first, so a node's kernel reads
// only its children's results, which the previous level's barrier
// finalised; the nodes of a level fan out on cfg's pool, cancellation
// checked between node tasks. Each kernel loops over its node's rows and
// writes only its own state (the build's also its children's groups,
// which no other node writes).
// With a predecessor, a node runs only if its input changed or a
// child's result differs; the others keep the predecessor's, so clean
// subtrees are shared and the sweep stops where a recomputed node shows
// its parent the same inputs as before. It returns how many nodes ran.
func sweep(cfg config, levels [][]int, nodes []*Node, kernel func(pos int) error, pred *predecessor) (int, error) {
	var differs []bool // per position, read by the parent's level
	if pred != nil {
		differs = make([]bool, len(nodes))
	}
	ran := 0
	for li := len(levels) - 1; li >= 0; li-- {
		work := levels[li]
		if pred != nil {
			work = nil
			for _, pos := range levels[li] {
				if pred.changed[pos] || slices.ContainsFunc(nodes[pos].Children, func(c int) bool { return differs[c] }) {
					work = append(work, pos)
				} else {
					pred.keep(pos)
				}
			}
		}
		ran += len(work)
		err := parallel.ForEach(cfg.ctx, cfg.workers, len(work), func(i int) error {
			pos := work[i]
			if err := kernel(pos); err != nil {
				return err
			}
			if pred != nil {
				differs[pos] = pred.differs(pos, pred.changed[pos])
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return ran, nil
}

// ErrCountOverflow reports a solution count that does not fit an int64.
var ErrCountOverflow = errors.New("dp: solution count overflows int64")

// counts is a plan's exact-count artefact: for every node row, the
// number of solutions of the subtree rooted at the node that pick the
// row, as an inclusive prefix sum along the row's group, whose last
// prefix is the group's total. It is built at most once: by the first
// reader of the plan or of a TDP instantiated from it (whose nodes share
// the plan's rows, groupings and child maps), or by NewPlanDelta.
type counts struct {
	levels [][]int
	once   sync.Once
	done   atomic.Bool // cum is built, without overflow
	cum    [][]int64   // per preorder position, indexed by row
	err    error
}

// get returns the prefix sums, counting them off nodes on the first
// call.
func (c *counts) get(nodes []*Node) ([][]int64, error) {
	c.count(newConfig(nil), nodes, nil, nil)
	return c.cum, c.err
}

// total is the number of solutions.
func (c *counts) total(nodes []*Node) (int, error) {
	cum, err := c.get(nodes)
	if err != nil {
		return -1, err
	}
	return int(groupTotal(cum[0], nodes[0].Groups.Rows(0))), nil
}

// count builds c, unless it is built, by the one counting pass: the
// count kernel on the driver. Given a predecessor's built counts old and
// the changed flags of the delta from its plan, a clean node keeps old's
// array, and a recounted one passes the recount on to its parent only if
// its content or a group total changed. It returns the nodes counted.
func (c *counts) count(cfg config, nodes []*Node, old *counts, changed []bool) (ran int, err error) {
	c.once.Do(func() {
		cum := make([][]int64, len(nodes))
		var pred *predecessor
		if old != nil {
			pred = &predecessor{
				changed: changed,
				keep:    func(pos int) { cum[pos] = old.cum[pos] },
				differs: func(pos int, contentChanged bool) bool {
					// Unchanged content is grouped as before, so both arrays
					// are read through the new node's groups.
					if contentChanged {
						return true
					}
					gs := nodes[pos].Groups
					for g := range int32(gs.Len()) {
						if groupTotal(cum[pos], gs.Rows(g)) != groupTotal(old.cum[pos], gs.Rows(g)) {
							return true
						}
					}
					return false
				},
			}
		}
		ran, err = sweep(cfg, c.levels, nodes, func(pos int) error { return countNode(nodes, cum, pos) }, pred)
		if c.err = err; err == nil {
			c.cum = cum
			c.done.Store(true)
		}
	})
	return ran, err
}

// countNode is the count kernel, in one int64 per node row: a row's
// count is the product of the totals of the child groups it selects,
// and every product and sum is checked against overflow.
func countNode(nodes []*Node, cum [][]int64, pos int) error {
	n := nodes[pos]
	c := make([]int64, n.Rel.Len())
	for row := range c {
		v := int64(1)
		for ci, child := range n.Children {
			var ok bool
			g := nodes[child].Groups.Rows(n.ChildGroup[ci][row])
			if v, ok = mulChecked(v, groupTotal(cum[child], g)); !ok {
				return ErrCountOverflow
			}
		}
		c[row] = v
	}
	for g := range int32(n.Groups.Len()) {
		sum := int64(0)
		for _, r := range n.Groups.Rows(g) {
			var ok bool
			if sum, ok = addChecked(sum, c[r]); !ok {
				return ErrCountOverflow
			}
			c[r] = sum
		}
	}
	cum[pos] = c
	return nil
}

// groupTotal is the number of solutions below one group of a node.
func groupTotal(cum []int64, rows []int32) int64 {
	if len(rows) == 0 {
		return 0
	}
	return cum[rows[len(rows)-1]]
}

// mulChecked and addChecked combine two non-negative counts, reporting
// false when the result does not fit an int64.
func mulChecked(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

func addChecked(a, b int64) (int64, bool) {
	s := uint64(a) + uint64(b)
	return int64(s), s <= math.MaxInt64
}

// NumSolutions is Plan.NumSolutions of the plan t was instantiated from.
func (t *TDP) NumSolutions() (int, error) { return t.counts.total(t.Nodes) }

// Draw fills rows (one per node, in preorder) with a solution drawn
// uniformly at random, once NumSolutions found some: each node in turn
// picks a row of the group its parent's row selects, in proportion to
// the row's count, by binary search over the group's prefix sums. A
// solution's probability telescopes to 1/NumSolutions.
func (t *TDP) Draw(r *rand.Rand, rows []int32) {
	cums, _ := t.counts.get(t.Nodes) // built: NumSolutions succeeded
	for pos, n := range t.Nodes {
		g, cum := n.Groups.Rows(t.GroupFor(pos, rows)), cums[pos]
		x := r.Int64N(groupTotal(cum, g))
		rows[pos] = g[sort.Search(len(g), func(i int) bool { return cum[g[i]] > x })]
	}
}

// Semiring is a commutative semiring (⊕, ⊗) for the aggregates of Part 2
// of the tutorial: a result's annotation is the ⊗ of its tuples', and
// the query aggregate is the ⊕ over all results.
type Semiring struct {
	Zero float64                    // the ⊕ identity
	Add  func(a, b float64) float64 // ⊕
	Mul  func(a, b float64) float64 // ⊗
}

// CountingSemiring counts results: annotations 1, ⊕ = +, ⊗ = ×.
func CountingSemiring() *Semiring {
	return &Semiring{Add: func(a, b float64) float64 { return a + b }, Mul: func(a, b float64) float64 { return a * b }}
}

// MinTropicalSemiring computes the minimum additive result weight (the
// top-1 of SumCost ranking) without enumeration: ⊕ = min, ⊗ = +.
func MinTropicalSemiring() *Semiring {
	return &Semiring{Zero: math.Inf(1), Add: math.Min, Mul: func(a, b float64) float64 { return a + b }}
}

// Eval evaluates the semiring aggregate over the query's results
// without touching them, annotating each row with annotate(pos, row,
// weight), pos its node's preorder position (nil: the weight). It is the
// semiring kernel on the driver: a row's annotation is ⊗-combined with
// the ⊕ of each child group it selects, each group's ⊕ taken once off
// the plan's groupings — O(n), with no index and no sweep of its own.
func (p *Plan) Eval(s *Semiring, annotate func(pos, row int, w float64) float64) float64 {
	if annotate == nil {
		annotate = func(_, _ int, w float64) float64 { return w }
	}
	// sums[pos][g] is the ⊕ over group g of node pos of its rows'
	// subtree annotations; the groups partition the rows.
	sums := make([][]float64, len(p.nodes))
	fold := func(pos int) error {
		n := p.nodes[pos]
		sums[pos] = make([]float64, n.Groups.Len())
		for gi := range sums[pos] {
			sum := s.Zero
			for _, row := range n.Groups.Rows(int32(gi)) {
				a := annotate(pos, int(row), n.Rel.Weights[row])
				for ci, c := range n.Children {
					a = s.Mul(a, sums[c][n.ChildGroup[ci][row]])
				}
				sum = s.Add(sum, a)
			}
			sums[pos][gi] = sum
		}
		return nil
	}
	// Sequential, never canceled, and the kernel cannot fail.
	sweep(newConfig(nil), p.levels, p.nodes, fold, nil)
	return sums[0][0]
}
