package hypergraph

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Decomposition is a generalized hypertree decomposition of the query
// hypergraph: a set of variable bags whose own hypergraph is α-acyclic,
// such that every query edge is fully contained in at least one bag.
// Evaluating each bag (a join of the relations it contains) and then
// running any acyclic-query algorithm over the bags computes the
// original cyclic query.
type Decomposition struct {
	// Bags are the variable sets, each sorted. Bags are maximal (no bag
	// is a subset of another) and listed in a deterministic order.
	Bags [][]string
	// Contains[b] lists the indices of edges e with Vars(e) ⊆ Bags[b],
	// ascending. Every edge index appears in at least one bag.
	Contains [][]int
	// Width is the width estimate that selected this decomposition: the
	// maximum over bags of the fractional edge cover number of the bag's
	// variables (edges may cover a bag variable from outside the bag, so
	// this estimates the fractional hypertree width, not the bag's exact
	// materialised size).
	Width float64
	// EstBagSizes holds the coster's per-bag materialization estimates,
	// aligned with Bags. Nil when the decomposition was chosen purely
	// structurally (DecomposeCosted with a nil coster).
	EstBagSizes []float64
	// EstCost is the total estimated materialization cost (the sum of
	// EstBagSizes); 0 when the decomposition was chosen structurally.
	EstCost float64
}

// BagCoster estimates the cost of materializing one candidate bag (the
// join of the query's relations projected to the bag's variables). It
// is implemented by catalog.CostModel; defining the interface here lets
// the decomposition search consume data statistics without importing
// the catalog package.
type BagCoster interface {
	BagCost(bag []string) float64
}

// String renders the decomposition as {A,B,C} {A,C,D} (width w).
func (d *Decomposition) String() string {
	parts := make([]string, len(d.Bags))
	for i, b := range d.Bags {
		parts[i] = "{" + strings.Join(b, ",") + "}"
	}
	return fmt.Sprintf("%s (width %.3g)", strings.Join(parts, " "), d.Width)
}

// maxExhaustiveVars bounds the exhaustive elimination-order search: up
// to this many variables every permutation is tried (at most 7! = 5040
// candidate orders, which collapse to far fewer distinct bag sets and
// are deduplicated before the width LP runs).
const maxExhaustiveVars = 7

// decompBeamWidth bounds the costed beam search over elimination orders
// used by DecomposeCosted on queries too large for exhaustive
// enumeration.
const decompBeamWidth = 4

// DecomposeCosted searches for a low-width generalized hypertree
// decomposition of the hypergraph. Candidate decompositions come from
// vertex elimination orders — every permutation for small queries,
// min-degree and min-fill greedy orders for larger ones. The trivial
// single-bag decomposition (all variables in one bag, evaluated by one
// Generic-Join) is always a candidate, so the search succeeds for every
// connected or disconnected query shape.
//
// A nil coster scores candidates purely structurally: by the maximum
// fractional edge cover over their bags, ties preferring fewer bags,
// then smaller bags. With a coster, candidates are ranked by total
// estimated bag materialization cost (Σ coster.BagCost(bag)) — the
// structural criteria only break near-ties — and, for queries beyond
// the exhaustive range, a beam search over elimination orders guided by
// the coster contributes extra candidates. The winning decomposition
// then carries the coster's per-bag estimates in EstBagSizes/EstCost.
func (h *Hypergraph) DecomposeCosted(coster BagCoster) (*Decomposition, error) {
	if len(h.Edges) == 0 {
		return nil, fmt.Errorf("hypergraph: cannot decompose an empty hypergraph")
	}
	vars := h.Vars()

	// Collect candidate bag sets, deduplicated by canonical key.
	candidates := make(map[string][][]string)
	add := func(bags [][]string) {
		candidates[bagsKey(bags)] = bags
	}

	// The trivial fallback: one bag holding every variable.
	add([][]string{append([]string(nil), vars...)})

	if len(vars) <= maxExhaustiveVars {
		permute(vars, func(order []string) {
			add(h.eliminationBags(order))
		})
	} else {
		add(h.eliminationBags(h.greedyOrder(false)))
		add(h.eliminationBags(h.greedyOrder(true)))
		if coster != nil {
			for _, bags := range h.beamEliminationBags(coster, decompBeamWidth) {
				add(bags)
			}
		}
	}

	// Score candidates; deterministic iteration via sorted keys.
	keys := make([]string, 0, len(candidates))
	for k := range candidates {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var best *Decomposition
	bestCost := 0.0
	for _, k := range keys {
		bags := candidates[k]
		width, err := h.maxBagCover(bags)
		if err != nil {
			continue // LP failure on one candidate is not fatal
		}
		cand := &Decomposition{Bags: bags, Width: width}
		if coster == nil {
			if best == nil || better(cand, best) {
				best = cand
			}
			continue
		}
		cost := totalBagCost(coster, bags)
		if best == nil || costedBetter(cand, cost, best, bestCost) {
			best, bestCost = cand, cost
		}
	}
	if best == nil {
		return nil, fmt.Errorf("hypergraph: decomposition search failed for %s", h)
	}
	// A disconnected query (cartesian product of components) yields a
	// disconnected bag set, which the T-DP layer rejects (no join tree
	// without cartesian tree edges). Merge the smallest bag of each
	// component into one union bag so the cross product happens inside
	// a single Generic-Join bag instead. Note the union bag joins the
	// components' *bag contents* (which may be partial joins larger
	// than each component's output), so this fallback trades
	// materialisation cost for accepting the shape at all — fine for
	// the rare disconnected query, not a width-optimal plan.
	if merged := connectBags(best.Bags); len(merged) != len(best.Bags) {
		w, err := h.maxBagCover(merged)
		if err != nil {
			return nil, err
		}
		best = &Decomposition{Bags: merged, Width: w}
	}
	if coster != nil {
		best.EstBagSizes = make([]float64, len(best.Bags))
		best.EstCost = 0
		for i, b := range best.Bags {
			best.EstBagSizes[i] = coster.BagCost(b)
			best.EstCost += best.EstBagSizes[i]
		}
	}
	best.Contains = h.containment(best.Bags)
	for ei := range h.Edges {
		found := false
		for _, c := range best.Contains {
			for _, e := range c {
				if e == ei {
					found = true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("hypergraph: edge %s not contained in any bag of %s", h.Edges[ei].Name, best)
		}
	}
	return best, nil
}

// FixedDecomposition returns the decomposition with exactly the given
// bags, in the given order — for shapes whose bags are known in closed
// form rather than searched. Only Contains is derived; the caller
// vouches that the bags cover every edge and form a join tree.
func (h *Hypergraph) FixedDecomposition(bags ...[]string) *Decomposition {
	return &Decomposition{Bags: bags, Contains: h.containment(bags)}
}

// better reports whether candidate a beats b: lower width, then fewer
// bags, then smaller total bag size.
func better(a, b *Decomposition) bool {
	const eps = 1e-9
	if a.Width < b.Width-eps {
		return true
	}
	if a.Width > b.Width+eps {
		return false
	}
	if len(a.Bags) != len(b.Bags) {
		return len(a.Bags) < len(b.Bags)
	}
	return totalBagVars(a.Bags) < totalBagVars(b.Bags)
}

func totalBagVars(bags [][]string) int {
	n := 0
	for _, b := range bags {
		n += len(b)
	}
	return n
}

// costedBetter ranks candidate a (estimated cost ca) against b (cost
// cb): a clearly cheaper candidate wins; within a relative epsilon the
// structural criteria of better() decide, keeping the choice
// deterministic when estimates coincide.
func costedBetter(a *Decomposition, ca float64, b *Decomposition, cb float64) bool {
	tol := 1e-6 * (1 + math.Max(ca, cb))
	if ca < cb-tol {
		return true
	}
	if ca > cb+tol {
		return false
	}
	return better(a, b)
}

// totalBagCost sums the coster's estimate over a candidate's bags.
func totalBagCost(coster BagCoster, bags [][]string) float64 {
	c := 0.0
	for _, b := range bags {
		c += coster.BagCost(b)
	}
	return c
}

// beamEliminationBags beam-searches vertex elimination orders, scoring
// a partial order by the accumulated estimated cost of the bags it has
// created, and returns the bag sets of the surviving orders. It
// complements the min-degree/min-fill candidates on queries too large
// for exhaustive permutation.
func (h *Hypergraph) beamEliminationBags(coster BagCoster, width int) [][][]string {
	type state struct {
		order []string
		adj   map[string]map[string]bool
		cost  float64
	}
	vars := h.Vars()
	states := []*state{{adj: h.primalAdjacency()}}
	for step := 0; step < len(vars); step++ {
		var next []*state
		for _, s := range states {
			for v, nbrs := range s.adj {
				bag := make([]string, 0, len(nbrs)+1)
				bag = append(bag, v)
				for u := range nbrs {
					bag = append(bag, u)
				}
				sort.Strings(bag)
				next = append(next, &state{
					order: append(append([]string(nil), s.order...), v),
					adj:   eliminateClone(s.adj, v),
					cost:  s.cost + coster.BagCost(bag),
				})
			}
		}
		// Deterministic despite map iteration: sort expansions by cost,
		// ties by the order string.
		sort.Slice(next, func(i, j int) bool {
			if next[i].cost != next[j].cost {
				return next[i].cost < next[j].cost
			}
			return strings.Join(next[i].order, ",") < strings.Join(next[j].order, ",")
		})
		if len(next) > width {
			next = next[:width]
		}
		states = next
	}
	out := make([][][]string, 0, len(states))
	for _, s := range states {
		out = append(out, h.eliminationBags(s.order))
	}
	return out
}

// eliminateClone returns a copy of adj with v eliminated: v removed and
// its neighbours pairwise connected (fill edges). The input is not
// modified.
func eliminateClone(adj map[string]map[string]bool, v string) map[string]map[string]bool {
	nbrs := adj[v]
	out := make(map[string]map[string]bool, len(adj)-1)
	for u, m := range adj {
		if u == v {
			continue
		}
		cm := make(map[string]bool, len(m)+len(nbrs))
		for w := range m {
			if w != v {
				cm[w] = true
			}
		}
		out[u] = cm
	}
	for u := range nbrs {
		for w := range nbrs {
			if u != w {
				out[u][w] = true
			}
		}
	}
	return out
}

// eliminationBags builds the tree-decomposition bags induced by a vertex
// elimination order: each eliminated variable's bag is the variable plus
// its current neighbours in the (progressively filled-in) primal graph.
// Non-maximal bags are dropped. The resulting bag hypergraph is always
// α-acyclic, and every query edge lies inside the bag of its
// first-eliminated variable.
func (h *Hypergraph) eliminationBags(order []string) [][]string {
	adj := h.primalAdjacency()
	var bags [][]string
	for _, v := range order {
		nbrs := adj[v]
		bag := make([]string, 0, len(nbrs)+1)
		bag = append(bag, v)
		for u := range nbrs {
			bag = append(bag, u)
		}
		sort.Strings(bag)
		bags = append(bags, bag)
		// Remove v; connect its neighbours pairwise (fill edges).
		for u := range nbrs {
			delete(adj[u], v)
			for w := range nbrs {
				if u != w {
					adj[u][w] = true
				}
			}
		}
		delete(adj, v)
	}
	return pruneSubsetBags(bags)
}

// primalAdjacency builds the primal (Gaifman) graph: two variables are
// adjacent iff some edge contains both.
func (h *Hypergraph) primalAdjacency() map[string]map[string]bool {
	adj := make(map[string]map[string]bool)
	for _, v := range h.Vars() {
		adj[v] = make(map[string]bool)
	}
	for _, e := range h.Edges {
		for _, u := range e.Vars {
			for _, w := range e.Vars {
				if u != w {
					adj[u][w] = true
				}
			}
		}
	}
	return adj
}

// greedyOrder produces a vertex elimination order with the min-degree
// (minFill=false) or min-fill (minFill=true) heuristic, breaking ties
// alphabetically for determinism.
func (h *Hypergraph) greedyOrder(minFill bool) []string {
	adj := h.primalAdjacency()
	remaining := h.Vars()
	var order []string
	for len(remaining) > 0 {
		bestIdx, bestScore := -1, 0
		for i, v := range remaining {
			var score int
			if minFill {
				score = fillCount(adj, v)
			} else {
				score = len(adj[v])
			}
			if bestIdx < 0 || score < bestScore {
				bestIdx, bestScore = i, score
			}
		}
		v := remaining[bestIdx]
		order = append(order, v)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		nbrs := adj[v]
		for u := range nbrs {
			delete(adj[u], v)
			for w := range nbrs {
				if u != w {
					adj[u][w] = true
				}
			}
		}
		delete(adj, v)
	}
	return order
}

// fillCount counts the missing edges among v's neighbours — the fill
// edges eliminating v would introduce.
func fillCount(adj map[string]map[string]bool, v string) int {
	nbrs := make([]string, 0, len(adj[v]))
	for u := range adj[v] {
		// Map order is harmless: the count below is the same for every
		// order of nbrs.
		nbrs = append(nbrs, u)
	}
	n := 0
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !adj[nbrs[i]][nbrs[j]] {
				n++
			}
		}
	}
	return n
}

// pruneSubsetBags removes bags contained in another bag (and exact
// duplicates), preserving first-occurrence order.
func pruneSubsetBags(bags [][]string) [][]string {
	var out [][]string
	for i, b := range bags {
		dominated := false
		for j, other := range bags {
			if i == j {
				continue
			}
			if subset(b, other) && (len(b) < len(other) || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, b)
		}
	}
	return out
}

// connectBags merges the smallest bag of every connected component of
// the bag hypergraph (bags adjacent iff they share a variable) into one
// union bag, so the final bag set is connected. Connected inputs come
// back unchanged.
func connectBags(bags [][]string) [][]string {
	n := len(bags)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if comp[x] != x {
			comp[x] = find(comp[x])
		}
		return comp[x]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if len(intersect(bags[i], bags[j])) > 0 {
				comp[find(i)] = find(j)
			}
		}
	}
	// Smallest bag per component, in deterministic order.
	smallest := make(map[int]int)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		s, ok := smallest[r]
		if !ok {
			smallest[r] = i
			roots = append(roots, r)
			continue
		}
		if len(bags[i]) < len(bags[s]) {
			smallest[r] = i
		}
	}
	if len(roots) <= 1 {
		return bags
	}
	mergedSet := make(map[string]bool)
	drop := make(map[int]bool)
	for _, r := range roots {
		i := smallest[r]
		drop[i] = true
		for _, v := range bags[i] {
			mergedSet[v] = true
		}
	}
	union := make([]string, 0, len(mergedSet))
	for v := range mergedSet {
		union = append(union, v)
	}
	sort.Strings(union)
	out := [][]string{union}
	for i, b := range bags {
		if !drop[i] {
			out = append(out, b)
		}
	}
	return pruneSubsetBags(out)
}

// intersect returns the sorted common elements of two sorted slices.
func intersect(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// subset reports a ⊆ b for sorted string slices.
func subset(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// maxBagCover returns the maximum fractional edge cover number over the
// bags, covering each bag's variables with all query edges (an edge
// covers the bag variables it contains, even when it extends outside the
// bag).
func (h *Hypergraph) maxBagCover(bags [][]string) (float64, error) {
	width := 0.0
	for _, bag := range bags {
		_, rho, err := h.FractionalCoverOf(bag)
		if err != nil {
			return 0, err
		}
		if rho > width {
			width = rho
		}
	}
	return width, nil
}

// FractionalCoverOf solves the fractional edge cover LP restricted to
// the given variables (each of which must occur in some edge): minimise
// Σ x_e subject to Σ_{e ∋ v} x_e ≥ 1 for every v in vars. It returns
// the per-edge weights and the cover number.
func (h *Hypergraph) FractionalCoverOf(vars []string) ([]float64, float64, error) {
	return h.cover(vars, nil)
}

// containment computes Contains for the given bags.
func (h *Hypergraph) containment(bags [][]string) [][]int {
	out := make([][]int, len(bags))
	for bi, bag := range bags {
		set := make(map[string]bool, len(bag))
		for _, v := range bag {
			set[v] = true
		}
		for ei, e := range h.Edges {
			inside := true
			for _, v := range e.Vars {
				if !set[v] {
					inside = false
					break
				}
			}
			if inside {
				out[bi] = append(out[bi], ei)
			}
		}
	}
	return out
}

// bagsKey canonicalises a bag set (sorted bags, sorted set) for
// deduplication.
func bagsKey(bags [][]string) string {
	keys := make([]string, len(bags))
	for i, b := range bags {
		keys[i] = strings.Join(b, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// permute calls f with every permutation of xs (xs is reused across
// calls; f must not retain it).
func permute(xs []string, f func([]string)) {
	buf := append([]string(nil), xs...)
	var rec func(k int)
	rec = func(k int) {
		if k == len(buf) {
			f(buf)
			return
		}
		for i := k; i < len(buf); i++ {
			buf[k], buf[i] = buf[i], buf[k]
			rec(k + 1)
			buf[k], buf[i] = buf[i], buf[k]
		}
	}
	rec(0)
}
