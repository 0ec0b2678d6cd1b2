// Package hypergraph models join queries as hypergraphs: one hyperedge
// per relation atom, one vertex per query variable. It provides the GYO
// acyclicity test with join-tree extraction, running-intersection
// verification, the fractional-edge-cover LP behind the AGM bound
// (Part 3 of the tutorial, PAPER.md), and the generalized-hypertree-
// decomposition search (DecomposeCosted) that the facade's generic cyclic
// planner compiles through: vertex-elimination orders scored by a
// coster's estimated bag sizes, or by the maximum fractional edge cover
// over the bags when there is no coster, searched by one subset DP over
// the sets of eliminated variables (CheapestOrder), exact up to 12
// variables and a beam over sets beyond. Its ranking loop (Cheapest)
// and its order search also serve the long-cycle choice and the
// Generic-Join order search.
package hypergraph

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/lp"
)

// Edge is a hyperedge: a named relation atom over a set of variables.
type Edge struct {
	Name string
	Vars []string
}

// Hypergraph is a join-query hypergraph.
type Hypergraph struct {
	Edges []Edge
}

// New builds a hypergraph from edges.
func New(edges ...Edge) *Hypergraph {
	return &Hypergraph{Edges: edges}
}

// E is shorthand for constructing an Edge.
func E(name string, vars ...string) Edge { return Edge{Name: name, Vars: vars} }

// Vars returns the sorted distinct variables of the hypergraph.
func (h *Hypergraph) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range h.Edges {
		for _, v := range e.Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// String renders the hypergraph as Q :- R1(A,B), R2(B,C), ...
func (h *Hypergraph) String() string {
	var parts []string
	for _, e := range h.Edges {
		parts = append(parts, fmt.Sprintf("%s(%s)", e.Name, strings.Join(e.Vars, ",")))
	}
	return "Q :- " + strings.Join(parts, ", ")
}

// JoinTree is a join tree over the hypergraph's edges: node i corresponds
// to Edges[i]. Parent[Root] = -1. A valid join tree satisfies the
// running-intersection property (see VerifyRunningIntersection).
type JoinTree struct {
	Root     int
	Parent   []int
	Children [][]int
	// Order is a DFS preorder of nodes starting at Root, so every node's
	// parent precedes it. Algorithms that serialise the tree use it.
	Order []int
}

// IsAcyclic reports whether the hypergraph is α-acyclic (GYO).
func (h *Hypergraph) IsAcyclic() bool {
	_, ok := h.BuildJoinTree()
	return ok
}

// BuildJoinTree runs the GYO ear-removal algorithm. It returns a join
// tree and true when the hypergraph is α-acyclic; otherwise nil, false.
func (h *Hypergraph) BuildJoinTree() (*JoinTree, bool) {
	n := len(h.Edges)
	if n == 0 {
		return nil, false
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	removed := make([]bool, n)
	remaining := n

	varSets := make([]map[string]bool, n)
	for i, e := range h.Edges {
		varSets[i] = make(map[string]bool, len(e.Vars))
		for _, v := range e.Vars {
			varSets[i][v] = true
		}
	}

	for remaining > 1 {
		progress := false
		for i := 0; i < n && remaining > 1; i++ {
			if removed[i] {
				continue
			}
			// Vars of i shared with any other remaining edge. Sorted so
			// the slice is deterministic regardless of map iteration
			// order (it currently only feeds order-insensitive
			// containment checks, but the GYO ear order must never
			// silently become schedule-dependent).
			shared := make([]string, 0, len(varSets[i]))
			for v := range varSets[i] {
				for j := 0; j < n; j++ {
					if j != i && !removed[j] && varSets[j][v] {
						shared = append(shared, v)
						break
					}
				}
			}
			sort.Strings(shared)
			// Find a witness edge containing all shared vars.
			for j := 0; j < n; j++ {
				if j == i || removed[j] {
					continue
				}
				contains := true
				for _, v := range shared {
					if !varSets[j][v] {
						contains = false
						break
					}
				}
				if contains {
					parent[i] = j
					removed[i] = true
					remaining--
					progress = true
					break
				}
			}
		}
		if !progress {
			return nil, false // GYO stuck: cyclic
		}
	}

	// The single remaining edge is the root.
	root := -1
	for i := 0; i < n; i++ {
		if !removed[i] {
			root = i
			break
		}
	}
	children := make([][]int, n)
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	t := &JoinTree{Root: root, Parent: parent, Children: children}
	t.Order = t.dfsOrder()
	return t, true
}

// Levels partitions the tree nodes by depth: Levels()[0] is [Root],
// Levels()[d] holds every node d edges below it, each level in Order
// (preorder) sequence. Nodes within one level are pairwise unrelated —
// no ancestor/descendant pairs — which is what makes level-synchronized
// parallel sweeps (the full reducer's semi-joins, the T-DP's bottom-up
// π pass) safe: a level only reads state written by deeper or shallower
// levels, never by its own.
func (t *JoinTree) Levels() [][]int {
	depth := make([]int, len(t.Parent))
	var levels [][]int
	for _, u := range t.Order {
		d := 0
		if p := t.Parent[u]; p >= 0 {
			d = depth[p] + 1
		}
		depth[u] = d
		if d == len(levels) {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], u)
	}
	return levels
}

func (t *JoinTree) dfsOrder() []int {
	order := make([]int, 0, len(t.Parent))
	var visit func(int)
	visit = func(u int) {
		order = append(order, u)
		for _, c := range t.Children[u] {
			visit(c)
		}
	}
	visit(t.Root)
	return order
}

// VerifyRunningIntersection checks that for every variable, the tree
// nodes whose edges contain it form a connected subtree. It returns the
// first violating variable, or "" when valid.
func (h *Hypergraph) VerifyRunningIntersection(t *JoinTree) string {
	for _, v := range h.Vars() {
		// Nodes containing v.
		var nodes []int
		has := make(map[int]bool)
		for i, e := range h.Edges {
			for _, ev := range e.Vars {
				if ev == v {
					nodes = append(nodes, i)
					has[i] = true
					break
				}
			}
		}
		if len(nodes) <= 1 {
			continue
		}
		// Connected iff every node in the set except one has a parent
		// chain that reaches another set member only through set members.
		// Equivalently: the set members minus the "highest" one must each
		// have their tree parent also in the set.
		countWithParentInSet := 0
		for _, u := range nodes {
			if p := t.Parent[u]; p >= 0 && has[p] {
				countWithParentInSet++
			}
		}
		if countWithParentInSet != len(nodes)-1 {
			return v
		}
	}
	return ""
}

// FractionalEdgeCover solves the fractional-edge-cover LP with unit costs
// and returns the per-edge weights and the cover number ρ*.
func (h *Hypergraph) FractionalEdgeCover() ([]float64, float64, error) {
	return h.cover(h.Vars(), nil)
}

// AGMBound returns the Atserias–Grohe–Marx bound ∏ |R_e|^{x*_e} on the
// output size of the join, given the cardinality of each edge's relation
// (aligned with h.Edges). Every size must be ≥ 1; a relation of size 0
// makes the join empty, reported as bound 0.
func (h *Hypergraph) AGMBound(sizes []float64) (float64, error) {
	_, bound, err := h.AGMCover(sizes)
	return bound, err
}

// AGMCover returns the fractional edge cover x* minimizing the AGM
// bound ∏ |R_e|^{x_e} for the given relation sizes (aligned with
// h.Edges), together with the bound itself. The weights satisfy
// Σ_{e∋v} x_e ≥ 1 for every variable v. Every size must be ≥ 1; a
// relation of size 0 makes the join empty, reported as a nil cover with
// bound 0.
func (h *Hypergraph) AGMCover(sizes []float64) ([]float64, float64, error) {
	return h.agmCover(h.Vars(), sizes)
}

// AGMBoundOf is AGMBound restricted to a subset of the variables: the
// bound ∏ |R_e|^{x*_e} on the size of the join projected to vars, where
// x* is the minimum log-weighted fractional cover of vars only. Sizes
// align with h.Edges and must be ≥ 1 (a size-0 relation reports 0).
func (h *Hypergraph) AGMBoundOf(vars []string, sizes []float64) (float64, error) {
	_, bound, err := h.agmCover(vars, sizes)
	return bound, err
}

// agmCover validates sizes (one per edge, each ≥ 1, or 0 for an empty
// join: nil cover, bound 0) and returns the cover of vars minimising
// Σ x_e·ln|R_e| with the bound ∏ |R_e|^{x_e} it certifies.
func (h *Hypergraph) agmCover(vars []string, sizes []float64) ([]float64, float64, error) {
	if len(sizes) != len(h.Edges) {
		return nil, 0, fmt.Errorf("hypergraph: %d sizes for %d edges", len(sizes), len(h.Edges))
	}
	logs := make([]float64, len(sizes))
	for i, s := range sizes {
		if s == 0 {
			return nil, 0, nil
		}
		if s < 1 {
			return nil, 0, fmt.Errorf("hypergraph: relation size %g < 1", s)
		}
		logs[i] = math.Log(s)
	}
	x, _, err := h.cover(vars, logs)
	if err != nil {
		return nil, 0, err
	}
	logBound := 0.0
	for i, xi := range x {
		logBound += xi * logs[i]
	}
	return x, math.Exp(logBound), nil
}

// cover solves the one covering LP of this package: minimise
// Σ cost[e]·x_e (nil cost: every edge costs 1) subject to
// Σ_{e∋v} x_e ≥ 1 for each v in vars. An edge covers the variables it
// contains even when it extends outside vars. Returns x and the optimum.
func (h *Hypergraph) cover(vars []string, cost []float64) ([]float64, float64, error) {
	n := len(h.Edges)
	c := make([]float64, n)
	for i := range c {
		c[i] = 1
		if cost != nil {
			c[i] = cost[i]
		}
	}
	a := make([][]float64, len(vars))
	b := make([]float64, len(vars))
	for vi, v := range vars {
		a[vi] = make([]float64, n)
		for ei, e := range h.Edges {
			for _, ev := range e.Vars {
				if ev == v {
					a[vi][ei] = 1
					break
				}
			}
		}
		b[vi] = 1
	}
	sol, err := lp.SolveCovering(c, a, b)
	if err != nil {
		return nil, 0, fmt.Errorf("hypergraph %s: %w", h, err)
	}
	return sol.X, sol.Value, nil
}

// Path returns the hypergraph of the l-relation path query
// R1(A0,A1), R2(A1,A2), ..., Rl(A_{l-1},A_l).
func Path(l int) *Hypergraph {
	h := &Hypergraph{}
	for i := 1; i <= l; i++ {
		h.Edges = append(h.Edges, E(fmt.Sprintf("R%d", i), attr(i-1), attr(i)))
	}
	return h
}

// Star returns the hypergraph of the l-relation star query
// R1(A0,A1), R2(A0,A2), ..., Rl(A0,Al).
func Star(l int) *Hypergraph {
	h := &Hypergraph{}
	for i := 1; i <= l; i++ {
		h.Edges = append(h.Edges, E(fmt.Sprintf("R%d", i), attr(0), attr(i)))
	}
	return h
}

// Cycle returns the hypergraph of the l-relation cycle query
// R1(A0,A1), ..., Rl(A_{l-1},A0). Cycle(3) is the triangle.
func Cycle(l int) *Hypergraph {
	h := &Hypergraph{}
	for i := 1; i <= l; i++ {
		h.Edges = append(h.Edges, E(fmt.Sprintf("R%d", i), attr(i-1), attr(i%l)))
	}
	return h
}

func attr(i int) string { return fmt.Sprintf("A%d", i) }
