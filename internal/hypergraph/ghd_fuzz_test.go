package hypergraph

// FuzzDecompose exercises the GHD search on generator-driven query
// shapes — connected and disconnected, acyclic and cyclic, with
// repeated variables and duplicate edges — and checks the structural
// contract every accepted decomposition documents: each edge fully
// contained in at least one bag, Contains consistent with Bags, no bag
// subsumed by another, and a deterministic result (the facade caches
// plans under the assumption that equal queries decompose equally).
//
//	go test -fuzz FuzzDecompose -fuzztime 30s ./internal/hypergraph

import (
	"fmt"
	"reflect"
	"testing"
)

// fuzzEdges decodes fuzz bytes into up to five edges over the variable
// pool A..H — small enough that the exhaustive elimination search runs
// on most inputs, large enough to cross the greedy threshold when many
// distinct variables appear.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		edges := fuzzEdges(data)
		h := New(edges...)
		d, err := h.DecomposeCosted(nil)
		if err != nil {
			t.Fatalf("DecomposeCosted failed on non-empty hypergraph %v: %v", h, err)
		}
		if len(d.Bags) == 0 || len(d.Contains) != len(d.Bags) {
			t.Fatalf("malformed decomposition %v for %v", d, h)
		}
		inBag := func(bag []string, vars []string) bool {
			set := make(map[string]bool, len(bag))
			for _, v := range bag {
				set[v] = true
			}
			for _, v := range vars {
				if !set[v] {
					return false
				}
			}
			return true
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
		// Same hypergraph, same decomposition: the search must be
		// deterministic for plan caching to be sound.
		d2, err := New(edges...).DecomposeCosted(nil)
		if err != nil || !reflect.DeepEqual(d, d2) {
			t.Fatalf("Decompose is nondeterministic:\n%v\nvs\n%v (err %v)", d, d2, err)
		}
	})
}
