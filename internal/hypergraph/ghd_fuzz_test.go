package hypergraph

// FuzzDecompose exercises the GHD search on generator-driven query
// shapes — connected and disconnected, acyclic and cyclic, with
// repeated variables and duplicate edges — and checks the structural
// contract every accepted decomposition documents, structural and
// costed: each edge fully contained in at least one bag, Contains
// consistent with Bags, no bag subsumed by another, and a deterministic
// result (the facade caches plans under the assumption that equal
// queries decompose equally). On a shape of at most 7 variables it
// also checks the subset DP against a reference that
// tries every elimination order (permutationBags): the costed search
// reaches the least estimated cost, with the same bags when only one
// bag set does, and the structural one ranks level with the best.
//
//	go test -fuzz FuzzDecompose -fuzztime 30s ./internal/hypergraph

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// fuzzEdges decodes fuzz bytes into up to five edges over the variable
// pool A..H — small enough that the permutation reference checks most
// inputs, large enough to pass its 7 variables when many distinct
// variables appear.
func fuzzEdges(data []byte) []Edge {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nEdges := 1 + int(next()%5)
	edges := make([]Edge, 0, nEdges)
	for i := 0; i < nEdges; i++ {
		arity := 1 + int(next()%3)
		vars := make([]string, 0, arity)
		for j := 0; j < arity; j++ {
			vars = append(vars, string(rune('A'+next()%8)))
		}
		edges = append(edges, E(fmt.Sprintf("R%d", i+1), vars...))
	}
	return edges
}

func FuzzDecompose(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x01\x00\x01\x01\x01\x01\x02"))         // 2-path
	f.Add([]byte("\x02\x01\x00\x01\x01\x01\x02\x01\x02\x00")) // triangle
	f.Add([]byte("\x04\x01\x00\x07\x01\x02\x03\x01\x04\x05")) // disconnected
	// R1(F,E,D), R2(D), R3(A,D), R4(B), R5(C,D): two components
	f.Add([]byte("\x04\x02\x05\x04\x03\x00\x03\x01\x00\x03\x00\x01\x01\x02\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		edges := fuzzEdges(data)
		h := New(edges...)
		for _, coster := range []BagCoster{nil, nameCoster{}} {
			d, err := h.DecomposeCosted(coster)
			if err != nil {
				t.Fatalf("DecomposeCosted failed on non-empty hypergraph %v: %v", h, err)
			}
			checkContract(t, edges, d)
			// Same hypergraph, same decomposition: the search must be
			// deterministic for plan caching to be sound.
			d2, err := New(edges...).DecomposeCosted(coster)
			if err != nil || !reflect.DeepEqual(d, d2) {
				t.Fatalf("Decompose is nondeterministic:\n%v\nvs\n%v (err %v)", d, d2, err)
			}
		}
		if len(h.Vars()) <= 7 {
			checkAgainstPermutations(t, h)
		}
	})
}

// checkContract checks the structural contract of one decomposition.
func checkContract(t *testing.T, edges []Edge, d *Decomposition) {
	t.Helper()
	if len(d.Bags) == 0 || len(d.Contains) != len(d.Bags) {
		t.Fatalf("malformed decomposition %v for %v", d, edges)
	}
	covered := make([]bool, len(edges))
	for bi, contains := range d.Contains {
		for _, ei := range contains {
			if ei < 0 || ei >= len(edges) {
				t.Fatalf("Contains[%d] references edge %d of %d", bi, ei, len(edges))
			}
			if !inBag(d.Bags[bi], edges[ei].Vars) {
				t.Fatalf("bag %v listed as containing edge %v but does not cover it", d.Bags[bi], edges[ei])
			}
			covered[ei] = true
		}
	}
	for ei, ok := range covered {
		if !ok {
			t.Fatalf("edge %v not contained in any bag of %v", edges[ei], d)
		}
	}
	for i := range d.Bags {
		for j := range d.Bags {
			if i != j && inBag(d.Bags[j], d.Bags[i]) {
				t.Fatalf("bag %v subsumed by bag %v — bags must be maximal", d.Bags[i], d.Bags[j])
			}
		}
	}
}

// checkAgainstPermutations holds DecomposeCosted to the best of every
// elimination order's bag set and the single bag.
func checkAgainstPermutations(t *testing.T, h *Hypergraph) {
	t.Helper()
	candidates := append(permutationBags(h), [][]string{h.Vars()})
	costed, err := h.DecomposeCosted(nameCoster{})
	if err != nil {
		t.Fatal(err)
	}
	least, argmin := math.Inf(1), map[string][][]string{}
	for _, bags := range candidates {
		cost := 0.0
		for _, b := range bags {
			cost += nameCoster{}.BagCost(b)
		}
		switch {
		case cost < least*(1-1e-6):
			least, argmin = cost, map[string][][]string{bagsKey(bags): bags}
		case cost <= least*(1+1e-6):
			argmin[bagsKey(bags)] = bags
		}
	}
	if math.Abs(costed.EstCost-least) > 1e-6*least {
		t.Fatalf("%v: costed search reached %g, an elimination order %g", h, costed.EstCost, least)
	}
	if _, ok := argmin[bagsKey(costed.Bags)]; len(argmin) == 1 && !ok {
		t.Fatalf("%v: costed search chose %v, the one cheapest bag set is %v", h, costed.Bags, argmin)
	}
	structural, err := h.DecomposeCosted(nil)
	if err != nil {
		t.Fatal(err)
	}
	best, err := h.Cheapest(nil, candidates...)
	if err != nil {
		t.Fatal(err)
	}
	if better(structural, best) || better(best, structural) {
		t.Fatalf("%v: structural search chose %v, the best elimination order %v", h, structural, best)
	}
}

// permutationBags returns the maximal bags of every elimination order of
// h's variables, eliminating on an explicit primal graph that gains the
// fill edges as it goes.
func permutationBags(h *Hypergraph) [][][]string {
	var out [][][]string
	var permute func(order, rest []string)
	permute = func(order, rest []string) {
		if len(rest) == 0 {
			out = append(out, eliminationBags(h, order))
			return
		}
		for i, v := range rest {
			permute(append(slices.Clip(order), v), append(slices.Clip(rest[:i]), rest[i+1:]...))
		}
	}
	permute(nil, h.Vars())
	return out
}

func eliminationBags(h *Hypergraph, order []string) [][]string {
	adj := make(map[string]map[string]bool)
	for _, v := range order {
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
	var bags [][]string
	for _, v := range order {
		bag := []string{v}
		for u := range adj[v] {
			bag = append(bag, u)
			delete(adj[u], v)
			for w := range adj[v] {
				if u != w {
					adj[u][w] = true
				}
			}
		}
		delete(adj, v)
		sort.Strings(bag)
		bags = append(bags, bag)
	}
	// The bags are distinct: each holds its own variable and no later
	// one does.
	var maximal [][]string
	for _, b := range bags {
		if !slices.ContainsFunc(bags, func(o []string) bool { return len(o) > len(b) && subset(b, o) }) {
			maximal = append(maximal, b)
		}
	}
	return maximal
}

// bagsKey names a bag set, whatever the order of its bags.
func bagsKey(bags [][]string) string {
	keys := make([]string, len(bags))
	for i, b := range bags {
		keys[i] = strings.Join(b, ",")
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
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

// inBag reports vars ⊆ bag.
func inBag(bag []string, vars []string) bool {
	for _, v := range vars {
		if !slices.Contains(bag, v) {
			return false
		}
	}
	return true
}
