package hypergraph

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
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

// DecomposeCosted searches for a low-width generalized hypertree
// decomposition of the hypergraph. Candidate decompositions come from
// vertex elimination orders — every permutation for small queries,
// min-degree and min-fill greedy orders for larger ones. The trivial
// single-bag decomposition (all variables in one bag, evaluated by one
// Generic-Join) is always a candidate, so the search succeeds for every
// connected or disconnected query shape.
//
// Cheapest ranks the candidates: by structure alone with a nil coster,
// by total estimated bag materialization cost (Σ coster.BagCost(bag))
// otherwise. With a coster, for queries beyond the exhaustive range,
// BeamOrders over elimination orders, each step priced by the bag it
// creates, contributes extra candidates. The winning decomposition
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
			orders := BeamOrders(vars, h.primalAdjacency(),
				func(adj adjacency, order []string) float64 {
					return coster.BagCost(adj.bag(order[len(order)-1]))
				},
				func(adj adjacency, order []string) adjacency {
					adj = adj.clone()
					eliminate(adj, order[len(order)-1])
					return adj
				})
			for _, order := range orders {
				add(h.eliminationBags(order))
			}
		}
	}

	// Rank in sorted key order, so an exact tie is deterministic.
	keys := slices.Sorted(maps.Keys(candidates))
	ordered := make([][][]string, len(keys))
	for i, k := range keys {
		ordered[i] = candidates[k]
	}
	best, err := h.Cheapest(coster, ordered...)
	if err != nil {
		return nil, err
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
		return h.Cheapest(coster, merged)
	}
	return best, nil
}

// Cheapest ranks candidate bag sets and returns the best as a
// decomposition with its width, containment and, with a coster, its
// per-bag estimates. With a nil coster the lowest width wins, then
// fewer bags, then fewer bag variables (better); with a coster the
// lowest total estimated bag cost, those structural criteria deciding
// costs within a relative 1e-6 (costedBetter). On an exact tie the
// earlier candidate wins. A candidate whose width LP fails is skipped;
// Cheapest fails when none is left or when the winner leaves some edge
// outside every bag.
func (h *Hypergraph) Cheapest(coster BagCoster, candidates ...[][]string) (*Decomposition, error) {
	var best *Decomposition
	for _, bags := range candidates {
		width, err := h.maxBagCover(bags)
		if err != nil {
			continue // LP failure on one candidate is not fatal
		}
		cand := &Decomposition{Bags: bags, Width: width}
		if coster != nil {
			cand.EstBagSizes = make([]float64, len(bags))
			for i, b := range bags {
				cand.EstBagSizes[i] = coster.BagCost(b)
				cand.EstCost += cand.EstBagSizes[i]
			}
		}
		if best == nil || coster == nil && better(cand, best) || coster != nil && costedBetter(cand, best) {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("hypergraph: decomposition search failed for %s", h)
	}
	best.Contains = h.containment(best.Bags)
	for ei, e := range h.Edges {
		if !slices.ContainsFunc(best.Contains, func(c []int) bool { return slices.Contains(c, ei) }) {
			return nil, fmt.Errorf("hypergraph: edge %s not contained in any bag of %s", e.Name, best)
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

// costedBetter ranks candidate a against b by estimated cost: a clearly
// cheaper candidate wins; within a relative epsilon the structural
// criteria of better() decide, keeping the choice deterministic when
// estimates coincide.
func costedBetter(a, b *Decomposition) bool {
	tol := 1e-6 * (1 + math.Max(a.EstCost, b.EstCost))
	if a.EstCost < b.EstCost-tol {
		return true
	}
	if a.EstCost > b.EstCost+tol {
		return false
	}
	return better(a, b)
}

// beamWidth is the number of partial orders BeamOrders keeps per step.
const beamWidth = 4

// BeamOrders beam-searches the orders of vars. Every partial order
// carries a state, start for the empty one. price returns the cost of
// placing an order's last variable, given the state of the order
// before it; advance returns the state after it, without modifying its
// argument, and runs only for the partial orders kept. Each step keeps
// the beamWidth partial orders of least accumulated cost, ties broken
// by the orders' names, and BeamOrders returns the complete orders that
// survive, cheapest first. It serves both the elimination orders of
// DecomposeCosted and the Generic-Join variable orders of large bags
// (catalog.ChooseOrder).
func BeamOrders[S any](vars []string, start S, price func(S, []string) float64, advance func(S, []string) S) [][]string {
	type partial struct {
		order []string
		name  string
		s     S
		cost  float64
	}
	beam := []partial{{s: start}}
	for range vars {
		var next []partial
		for _, p := range beam {
			for _, v := range vars {
				if slices.Contains(p.order, v) {
					continue
				}
				order := append(slices.Clip(p.order), v)
				next = append(next, partial{order, strings.Join(order, ","), p.s, p.cost + price(p.s, order)})
			}
		}
		slices.SortFunc(next, func(a, b partial) int {
			return cmp.Or(cmp.Compare(a.cost, b.cost), strings.Compare(a.name, b.name))
		})
		beam = next[:min(len(next), beamWidth)]
		for i := range beam {
			beam[i].s = advance(beam[i].s, beam[i].order)
		}
	}
	orders := make([][]string, len(beam))
	for i, p := range beam {
		orders[i] = p.order
	}
	return orders
}

// adjacency is a primal graph: the variables adjacent to each variable.
type adjacency map[string]map[string]bool

// clone returns a copy of adj that shares no map with it.
func (adj adjacency) clone() adjacency {
	out := make(adjacency, len(adj))
	for u, m := range adj {
		out[u] = maps.Clone(m)
	}
	return out
}

// bag returns v and its neighbours, sorted.
func (adj adjacency) bag(v string) []string {
	bag := append(make([]string, 0, len(adj[v])+1), v)
	for u := range adj[v] {
		bag = append(bag, u)
	}
	sort.Strings(bag)
	return bag
}

// eliminate removes v from adj and connects its neighbours pairwise
// (the fill edges). It returns v's bag from before the removal.
func eliminate(adj adjacency, v string) []string {
	bag := adj.bag(v)
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
	return bag
}

// eliminationBags builds the tree-decomposition bags induced by a vertex
// elimination order: each eliminated variable's bag is the variable plus
// its current neighbours in the (progressively filled-in) primal graph.
// Non-maximal bags are dropped. The resulting bag hypergraph is always
// α-acyclic, and every query edge lies inside the bag of its
// first-eliminated variable.
func (h *Hypergraph) eliminationBags(order []string) [][]string {
	adj := h.primalAdjacency()
	bags := make([][]string, len(order))
	for i, v := range order {
		bags[i] = eliminate(adj, v)
	}
	return pruneSubsetBags(bags)
}

// primalAdjacency builds the primal (Gaifman) graph: two variables are
// adjacent iff some edge contains both.
func (h *Hypergraph) primalAdjacency() adjacency {
	adj := make(adjacency)
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
		eliminate(adj, v)
	}
	return order
}

// fillCount counts the missing edges among v's neighbours — the fill
// edges eliminating v would introduce.
func fillCount(adj adjacency, v string) int {
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
