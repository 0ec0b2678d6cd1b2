package hypergraph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// DecomposeCosted searches for a low-width generalized hypertree
// decomposition of the hypergraph among the bag sets of vertex
// elimination orders, which CheapestOrder searches over the sets of
// variables eliminated so far: every elimination step creates one bag
// (elimination.bag), and the order's bag set is its maximal bags. With
// a coster an order costs the summed coster.BagCost of its maximal
// bags; with a nil coster it ranks as better does — a first search
// finds the least width, the maximum fractional edge cover over the
// bags, and a second the fewest bags, then bag variables, within it.
// Cheapest takes the final pick between the found bag set and the
// trivial single bag (all variables, evaluated by one Generic-Join), so
// the search succeeds for every query shape. A disconnected query
// gets the bags of its components, no bag spanning two: its join tree
// links them by edges on the empty key, and the product is enumerated,
// never materialised. The winning decomposition carries the coster's
// per-bag estimates in EstBagSizes/EstCost.
func (h *Hypergraph) DecomposeCosted(coster BagCoster) (*Decomposition, error) {
	if len(h.Edges) == 0 {
		return nil, fmt.Errorf("hypergraph: cannot decompose an empty hypergraph")
	}
	e := h.elimination()
	n := len(e.vars)
	// priced is a step of CheapestOrder: the price of the bag that
	// eliminating v after placed creates, 0 for a bag inside an earlier
	// one, each distinct bag priced once.
	priced := func(price func(bag []string) float64) func(VarSet, int) float64 {
		m := make(map[string]float64)
		return func(placed VarSet, v int) float64 {
			bag, maximal := e.bag(placed, v)
			if !maximal {
				return 0
			}
			c, ok := m[string(bag)]
			if !ok {
				c = price(VarSet(bag).Names(e.vars))
				m[string(bag)] = c
			}
			return c
		}
	}
	var order []int
	if coster != nil {
		order, _ = CheapestOrder(n, false, priced(coster.BagCost))
	} else {
		// A bag inside another has no larger cover, so an order's width
		// is the widest cover of its maximal bags, each at least 1.
		rho := priced(func(bag []string) float64 {
			if _, r, err := h.FractionalCoverOf(bag); err == nil {
				return r
			}
			return math.Inf(1)
		})
		_, width := CheapestOrder(n, true, rho)
		// A bag weighs more than all bag variables together (at most n
		// bags of at most n), so the sum ranks bag count first.
		weight := float64(n*n + 1)
		order, _ = CheapestOrder(n, false, func(placed VarSet, v int) float64 {
			switch r := rho(placed, v); {
			case r == 0:
				return 0
			case r > width+1e-9:
				return math.Inf(1)
			}
			bag, _ := e.bag(placed, v)
			return weight + float64(len(VarSet(bag).Names(e.vars)))
		})
	}
	return h.Cheapest(coster, e.bags(order), [][]string{e.vars})
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

// elimination is the primal graph of a hypergraph — two variables are
// adjacent iff some edge holds both — over its sorted variables, by
// index, with the scratch space of bag.
type elimination struct {
	vars   []string
	adj    [][]int
	placed VarSet // the set comp, nbhd and size describe
	comp   []int  // comp[u]: u's component of placed, −1 outside it
	nbhd   []byte // the bytes of N(c) from c·len(placed) on
	size   []int  // size[c]: |N(c)|
	buf    []byte // the last bag
}

func (h *Hypergraph) elimination() *elimination {
	vars := h.Vars()
	e := &elimination{vars: vars, adj: make([][]int, len(vars)), comp: make([]int, len(vars))}
	for _, ed := range h.Edges {
		for _, u := range ed.Vars {
			for _, w := range ed.Vars {
				i, _ := slices.BinarySearch(vars, u)
				j, _ := slices.BinarySearch(vars, w)
				if i != j && !slices.Contains(e.adj[i], j) {
					e.adj[i] = append(e.adj[i], j)
				}
			}
		}
	}
	return e
}

// components finds the components of placed and their neighbourhoods.
func (e *elimination) components(placed VarSet) {
	e.placed, e.nbhd, e.size = placed, e.nbhd[:0], e.size[:0]
	for u := range e.vars {
		e.comp[u] = -1
	}
	var stack []int
	for u := range e.vars {
		if !placed.Has(u) || e.comp[u] >= 0 {
			continue
		}
		c, off := len(e.size), len(e.nbhd)
		e.nbhd = append(e.nbhd, make([]byte, len(placed))...)
		e.size = append(e.size, 0)
		e.comp[u], stack = c, append(stack, u)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range e.adj[x] {
				switch b := &e.nbhd[off+w/8]; {
				case !placed.Has(w):
					if *b&(1<<(w%8)) == 0 {
						*b |= 1 << (w % 8)
						e.size[c]++
					}
				case e.comp[w] < 0:
					e.comp[w], stack = c, append(stack, w)
				}
			}
		}
	}
}

// bag returns the bag that eliminating v creates once the set placed is
// eliminated — as a VarSet's bytes, valid until the next call — and
// whether it is maximal. Whatever the order placed was eliminated in,
// two remaining vertices are adjacent iff a path joins them through
// placed (Rose, Tarjan and Lueker), so the bag is v and every vertex
// outside placed that v reaches through it: v's own neighbours and the
// neighbourhood N(C) of every component C of placed next to v. Later
// bags lack v; an earlier one holds the bag iff the bag equals some
// such N(C), the bag of C's last-eliminated vertex holding N(C) — so
// that is the one case the bag is not maximal.
func (e *elimination) bag(placed VarSet, v int) ([]byte, bool) {
	if placed != e.placed {
		e.components(placed)
	}
	bag := append(e.buf[:0], make([]byte, len(placed))...)
	bag[v/8] |= 1 << (v % 8)
	widest := 0 // the largest |N(C)| of a component C next to v
	for _, u := range e.adj[v] {
		if c := e.comp[u]; c < 0 {
			bag[u/8] |= 1 << (u % 8)
		} else {
			for i, b := range e.nbhd[c*len(placed) : (c+1)*len(placed)] {
				bag[i] |= b
			}
			widest = max(widest, e.size[c])
		}
	}
	e.buf = bag
	size := 0
	for _, b := range bag {
		size += bits.OnesCount8(b)
	}
	// Every N(C) lies in the bag, so one equals it iff it is as large.
	return bag, widest < size
}

// bags returns the maximal bags of an elimination order, in the order
// it creates them. Their hypergraph is always α-acyclic, and every
// query edge lies inside the bag of its first-eliminated variable.
func (e *elimination) bags(order []int) [][]string {
	placed := VarSet(make([]byte, (len(order)+7)/8))
	var out [][]string
	for _, v := range order {
		if bag, maximal := e.bag(placed, v); maximal {
			out = append(out, VarSet(bag).Names(e.vars))
		}
		placed = placed.With(v)
	}
	return out
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
