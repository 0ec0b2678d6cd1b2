package hypergraph

import (
	"cmp"
	"maps"
	"slices"
	"strings"
)

// exactOrderVars bounds the exact search of CheapestOrder: up to this
// many variables it keeps every set (2^n states); beyond, each layer
// keeps the beamWidth cheapest.
const exactOrderVars = 12

// beamWidth is the number of sets CheapestOrder keeps per layer beyond
// exactOrderVars.
const beamWidth = 4

// VarSet is a set of variable indices: bit i%8 of byte i/8 stands for
// index i. Every set of one search has the same length, so equal sets
// are equal strings and a VarSet is its own map key.
type VarSet string

// Has reports whether i is in s.
func (s VarSet) Has(i int) bool { return s[i/8]&(1<<(i%8)) != 0 }

// With returns s ∪ {i}.
func (s VarSet) With(i int) VarSet {
	b := []byte(s)
	b[i/8] |= 1 << (i % 8)
	return VarSet(b)
}

// Names returns the names of s's members, in index order.
func (s VarSet) Names(names []string) []string {
	var out []string
	for i, v := range names {
		if s.Has(i) {
			out = append(out, v)
		}
	}
	return out
}

// CheapestOrder searches the orders of n variables, indexed 0..n−1, for
// one of least cost and returns it with its cost. An order's cost
// combines step(placed, v) over its variables v, placed being the set
// before v: the sum, or the maximum when useMax is set. The search is
// the subset DP best[S] = min over v∈S of best[S∖{v}] ⊕ step(S∖{v}, v),
// which holds because a step sees only the set placed before it, not
// its order. It is run forwards one layer of equal-size sets at a time;
// up to exactOrderVars variables every set is kept, so the minimum is
// exact, an exact tie going to the cheaper prefix and then the least
// last variable. Beyond, a layer keeps its beamWidth cheapest sets,
// ties broken by the sets' bits.
func CheapestOrder(n int, useMax bool, step func(placed VarSet, v int) float64) ([]int, float64) {
	type state struct {
		set  VarSet
		cost float64
		prev *state
		v    int
	}
	layer := []*state{{set: VarSet(make([]byte, (n+7)/8))}}
	for range n {
		next := make(map[VarSet]*state, len(layer))
		for _, s := range layer {
			t := []byte(s.set)
			for v := range n {
				if s.set.Has(v) {
					continue
				}
				c := step(s.set, v)
				if useMax {
					c = max(c, s.cost)
				} else {
					c += s.cost
				}
				t[v/8] ^= 1 << (v % 8)
				switch o := next[VarSet(t)]; {
				case o == nil:
					next[VarSet(t)] = &state{VarSet(t), c, s, v}
				case cmp.Or(cmp.Compare(c, o.cost), cmp.Compare(s.cost, o.prev.cost), cmp.Compare(v, o.v)) < 0:
					o.cost, o.prev, o.v = c, s, v
				}
				t[v/8] ^= 1 << (v % 8)
			}
		}
		// Which set reaches a state first does not change its winner.
		layer = slices.Collect(maps.Values(next))
		if n > exactOrderVars {
			slices.SortFunc(layer, func(a, b *state) int {
				return cmp.Or(cmp.Compare(a.cost, b.cost), strings.Compare(string(a.set), string(b.set)))
			})
			layer = layer[:min(len(layer), beamWidth)]
		}
	}
	order := make([]int, n)
	for s, i := layer[0], n-1; s.prev != nil; s, i = s.prev, i-1 {
		order[i] = s.v
	}
	return order, layer[0].cost
}
