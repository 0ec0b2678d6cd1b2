// Package wcoj implements worst-case-optimal multiway join algorithms
// (Part 3 of the tutorial, PAPER.md): Generic-Join and Leapfrog
// Triejoin. Instead of joining two relations at a time, they proceed
// one *variable* at a time, intersecting the candidate values of every
// relation containing that variable — which is what bounds their
// running time by the AGM bound of the query.
//
// Relations are accessed through implicit tries over sorted key
// columns: each atom's tuples are sorted lexicographically by its
// variables in the global variable order, and the values are gathered
// into one flat array in that order, column by column, so the
// depth-d key of sorted row r is keys[d][r]. A trie node is an interval
// of rows. Seeks are plain searches over one column: a lower bound by
// binary search, the end of a block by galloping from its first row, so
// a short block costs O(log block) rather than O(log interval). The
// depth-0 interval is always the whole atom, so when its column is dense
// (vertex ids and dictionary codes are) the atom keeps one offset per
// value in its range instead, and a depth-0 seek is a direct lookup.
//
// Because Generic-Join decomposes over the first variable's domain
// (the observation behind the skew analysis of "Skew Strikes Back",
// Ngo–Ré–Rudra), MaterializeParallelHinted partitions the top-level
// intersection across a bounded worker pool (internal/parallel), on
// which it also sorts the atoms' tries, one task per atom, while
// staying bit-identical to the sequential Materialize — same output
// order, same Instr totals, same error. See docs/ARCHITECTURE.md for
// the determinism invariants.
package wcoj

import (
	"fmt"
	"slices"
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

// atomState is the per-atom trie cursor used during the join. rows,
// keys, start, base and globalPos are immutable after newAtomState, and
// cursor clones share them; iv and hint are each cursor's own.
type atomState struct {
	rel *relation.Relation
	// rows is the sorted row order: sorted row r is rel's row rows[r].
	// Only emitAtom reads it, for the weights.
	rows []int32
	// keys[d][r] is the value of the atom's depth-d variable in sorted
	// row r: a view into one flat array holding the columns back to back.
	keys [][]relation.Value
	// start is nil unless the depth-0 column is dense (see denseSpan).
	// Then the sorted rows holding value base+i are [start[i], start[i+1]),
	// so a depth-0 narrow reads two offsets and a depth-0 nextBlock one,
	// where a sparse column is searched. It is the tail of rows'
	// allocation: at most 2n+1 offsets for n rows.
	start []int32
	base  relation.Value
	// iv[d] is the row interval after this atom's first d variables have
	// been bound; iv[0] = [0, len).
	iv [][2]int32
	// hint[d] is the row where the last depth-d narrow stopped by search.
	// Every row before it holds a value below the one that narrow sought,
	// so the next narrow for a larger value may start there.
	hint []int32
	// globalPos[d] is the global variable position of the atom's d-th
	// variable (strictly increasing).
	globalPos []int
}

// newAtomState sorts the atom's tuples by its variables in global order
// and gathers their values into sorted key columns, with the depth-0
// offsets when that column is dense.
func newAtomState(a Atom, varOrder []string) (*atomState, error) {
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
		pos := slices.Index(varOrder, v)
		if pos < 0 {
			return nil, fmt.Errorf("wcoj: atom %s variable %s missing from variable order", a.Rel.Name, v)
		}
		cvs = append(cvs, cv{col: col, pos: pos})
	}
	sort.Slice(cvs, func(i, j int) bool { return cvs[i].pos < cvs[j].pos })
	cols := make([]int, len(cvs))
	st := &atomState{rel: a.Rel, globalPos: make([]int, len(cvs))}
	for d, x := range cvs {
		cols[d], st.globalPos[d] = x.col, x.pos
	}
	n := a.Rel.Len()
	offsets := 0
	if n > 0 && len(cols) > 0 {
		lo, hi := a.Rel.Tuples[0][cols[0]], a.Rel.Tuples[0][cols[0]]
		for _, t := range a.Rel.Tuples {
			lo, hi = min(lo, t[cols[0]]), max(hi, t[cols[0]])
		}
		if span := denseSpan(lo, hi, n); span > 0 {
			st.base, offsets = lo, span+1
		}
	}
	buf := make([]int32, n+offsets)
	st.rows = buf[:n:n]
	for i := range st.rows {
		st.rows[i] = int32(i)
	}
	// Equal rows keep pdqsort's order (sort.Slice gives the same): it is
	// the emit order of duplicate tuples, which the result-sequence
	// goldens pin, so a stable or another sort would reorder results.
	slices.SortFunc(st.rows, func(i, j int32) int {
		ti, tj := a.Rel.Tuples[i], a.Rel.Tuples[j]
		for _, c := range cols {
			if ti[c] != tj[c] {
				if ti[c] < tj[c] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	flat := make([]relation.Value, n*len(cols))
	st.keys = make([][]relation.Value, len(cols))
	for d, c := range cols {
		col := flat[d*n : (d+1)*n : (d+1)*n]
		for r, row := range st.rows {
			col[r] = a.Rel.Tuples[row][c]
		}
		st.keys[d] = col
	}
	if offsets > 0 {
		st.start = buf[n:]
		i := 0
		for r, v := range st.keys[0] {
			for end := int(v - st.base); i <= end; i++ {
				st.start[i] = int32(r)
			}
		}
		for ; i < offsets; i++ {
			st.start[i] = int32(n)
		}
	}
	st.initCursor()
	return st, nil
}

// denseSpan returns the number of values in [lo, hi] when that is at
// most 2n, so that one offset per value costs at most 8 B per row, and 0
// when the column is sparse. The difference is taken in uint64, where it
// cannot overflow for any lo ≤ hi.
func denseSpan(lo, hi relation.Value, n int) int {
	if d := uint64(hi) - uint64(lo); d < 2*uint64(n) {
		return int(d) + 1
	}
	return 0
}

// initCursor gives the cursor a fresh interval stack and hints, at the
// root of the trie.
func (st *atomState) initCursor() {
	st.iv = make([][2]int32, len(st.keys)+1)
	st.iv[0] = [2]int32{0, int32(len(st.rows))}
	st.hint = make([]int32, len(st.keys))
}

// narrow binds the atom's depth-d variable to v within the current
// interval, returning false if no rows match.
func (st *atomState) narrow(d int, v relation.Value) bool {
	if d == 0 && st.start != nil {
		// v below base wraps to an index far beyond the range.
		i := uint64(v) - uint64(st.base)
		if i >= uint64(len(st.start)-1) || st.start[i] == st.start[i+1] {
			return false
		}
		st.iv[1] = [2]int32{st.start[i], st.start[i+1]}
		return true
	}
	col := st.keys[d]
	lo, hi := st.iv[d][0], st.iv[d][1]
	// The hint holds for any interval it falls in: the check is what
	// makes it safe after the parent interval moved, or when narrows
	// arrive out of order.
	if h := st.hint[d]; lo < h && h <= hi && col[h-1] < v {
		lo = h
	}
	i, found := slices.BinarySearch(col[lo:hi], v)
	first := lo + int32(i)
	if !found {
		st.hint[d] = first
		return false
	}
	last := gallop(col, first, hi, v, false)
	st.iv[d+1] = [2]int32{first, last}
	st.hint[d] = last
	return true
}

// seekGE positions within the current depth-d interval at the first row
// at or after from whose value is ≥ v, returning that row or hi when
// exhausted.
func (st *atomState) seekGE(d int, from int32, v relation.Value) int32 {
	return gallop(st.keys[d], from, st.iv[d][1], v, true)
}

// nextBlock returns the first row after the block of rows sharing the
// depth-d value of row r.
func (st *atomState) nextBlock(d int, r int32) int32 {
	col := st.keys[d]
	if d == 0 && st.start != nil {
		return st.start[col[r]-st.base+1]
	}
	return gallop(col, r, st.iv[d][1], col[r], false)
}

// gallop returns the first row in [lo, hi) of the sorted column col
// whose value is > v — or ≥ v when ge is set — or hi if there is none.
// It probes lo, lo+1, lo+3, lo+7, … and binary-searches the last gap,
// so it costs O(log(result−lo)) comparisons however long the interval.
func gallop(col []relation.Value, lo, hi int32, v relation.Value, ge bool) int32 {
	before := func(x relation.Value) bool { return x < v || !ge && x == v }
	if lo < hi && before(col[lo]) {
		for step := int32(1); ; step <<= 1 {
			if step >= hi-lo || !before(col[lo+step]) {
				lo, hi = lo+1, min(lo+step, hi)
				break
			}
			lo += step
		}
	}
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if before(col[m]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
