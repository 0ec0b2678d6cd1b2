// Package wcoj implements worst-case-optimal multiway join algorithms
// (Part 3 of the tutorial, PAPER.md): Generic-Join and Leapfrog
// Triejoin. Instead of joining two relations at a time, they proceed
// one *variable* at a time, intersecting the candidate values of every
// relation containing that variable — which is what bounds their
// running time by the AGM bound of the query.
//
// Relations are accessed through implicit tries: each atom's tuples are
// sorted lexicographically by its variables in the global variable
// order, and a trie node is an interval of that sorted array.
//
// Because Generic-Join decomposes over the first variable's domain
// (the observation behind the skew analysis of "Skew Strikes Back",
// Ngo–Ré–Rudra), MaterializeParallel partitions the top-level
// intersection across a bounded worker pool (internal/parallel) while
// staying bit-identical to the sequential Materialize — same output
// order, same Instr totals. See docs/ARCHITECTURE.md for the
// determinism invariants.
package wcoj

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// Atom binds a relation to query variables: Vars[i] names the variable
// of the relation's i-th column. Within one atom, variables must be
// distinct.
type Atom struct {
	Rel  *relation.Relation
	Vars []string
}

// atomState is the per-atom trie cursor used during the join.
type atomState struct {
	rel  *relation.Relation
	cols []int // relation columns ordered by global variable order
	rows []int32
	// iv[d] is the row interval after this atom's first d variables have
	// been bound; iv[0] = [0, len).
	iv [][2]int32
	// globalPos[d] is the global variable position of the atom's d-th
	// variable (strictly increasing).
	globalPos []int
}

// newAtomState sorts the atom's tuples by its variables in global order.
func newAtomState(a Atom, orderIndex map[string]int) (*atomState, error) {
	if len(a.Vars) != a.Rel.Arity() {
		return nil, fmt.Errorf("wcoj: atom %s has %d vars for arity %d", a.Rel.Name, len(a.Vars), a.Rel.Arity())
	}
	seen := make(map[string]bool)
	type cv struct {
		col int
		pos int
	}
	cvs := make([]cv, 0, len(a.Vars))
	for col, v := range a.Vars {
		if seen[v] {
			return nil, fmt.Errorf("wcoj: atom %s repeats variable %s", a.Rel.Name, v)
		}
		seen[v] = true
		pos, ok := orderIndex[v]
		if !ok {
			return nil, fmt.Errorf("wcoj: atom %s variable %s missing from variable order", a.Rel.Name, v)
		}
		cvs = append(cvs, cv{col: col, pos: pos})
	}
	sort.Slice(cvs, func(i, j int) bool { return cvs[i].pos < cvs[j].pos })
	st := &atomState{rel: a.Rel}
	for _, x := range cvs {
		st.cols = append(st.cols, x.col)
		st.globalPos = append(st.globalPos, x.pos)
	}
	st.rows = make([]int32, a.Rel.Len())
	for i := range st.rows {
		st.rows[i] = int32(i)
	}
	sort.Slice(st.rows, func(i, j int) bool {
		ti, tj := a.Rel.Tuples[st.rows[i]], a.Rel.Tuples[st.rows[j]]
		for _, c := range st.cols {
			if ti[c] != tj[c] {
				return ti[c] < tj[c]
			}
		}
		return false
	})
	st.iv = make([][2]int32, len(st.cols)+1)
	st.iv[0] = [2]int32{0, int32(len(st.rows))}
	return st, nil
}

// valueAt returns the value of the atom's depth-d variable in sorted row r.
func (st *atomState) valueAt(r int32, d int) relation.Value {
	return st.rel.Tuples[st.rows[r]][st.cols[d]]
}

// narrow binds the atom's depth-d variable to v within the current
// interval, returning false if no rows match.
func (st *atomState) narrow(d int, v relation.Value) bool {
	lo, hi := st.iv[d][0], st.iv[d][1]
	// Binary search for the [first, last) block with value v at depth d.
	first := lo + int32(sort.Search(int(hi-lo), func(i int) bool {
		return st.valueAt(lo+int32(i), d) >= v
	}))
	if first == hi || st.valueAt(first, d) != v {
		return false
	}
	last := lo + int32(sort.Search(int(hi-lo), func(i int) bool {
		return st.valueAt(lo+int32(i), d) > v
	}))
	st.iv[d+1] = [2]int32{first, last}
	return true
}

// seekGE positions within the current depth-d interval at the first row
// whose value is ≥ v, returning that row or hi when exhausted.
func (st *atomState) seekGE(d int, from int32, v relation.Value) int32 {
	hi := st.iv[d][1]
	return from + int32(sort.Search(int(hi-from), func(i int) bool {
		return st.valueAt(from+int32(i), d) >= v
	}))
}

// nextBlock returns the first row after the block of rows sharing the
// depth-d value of row r.
func (st *atomState) nextBlock(d int, r int32) int32 {
	v := st.valueAt(r, d)
	hi := st.iv[d][1]
	return r + int32(sort.Search(int(hi-r), func(i int) bool {
		return st.valueAt(r+int32(i), d) > v
	}))
}
