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
// Such a column is also sorted by counting: the offsets are the buckets'
// bounds, and only the rows within one bucket are compared, on the
// remaining columns. A sparse column is comparison-sorted. Rows equal
// on every key keep their input order under either sort.
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
	"cmp"
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
	// start is nil unless the depth-0 column is dense (see
	// relation.DenseColumn).
	// Then the sorted rows holding value base+i are [start[i], start[i+1]),
	// so a depth-0 narrow reads two offsets and a depth-0 nextBlock one,
	// where a sparse column is searched. It is the tail of rows'
	// allocation: at most 2n+1 offsets for n rows. newAtomState first
	// uses it as the counting sort's buckets.
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

// newAtomState sorts the atom's tuples by its variables in global order,
// ties by row id, and gathers their values into sorted key columns, with
// the depth-0 offsets when that column is dense.
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
	var span int
	if len(cols) > 0 {
		st.base, span = a.Rel.DenseColumn(cols[0])
	}
	offsets := 0
	if span > 0 {
		offsets = span + 1
	}
	buf := make([]int32, n+offsets)
	st.rows = buf[:n:n]
	flat := make([]relation.Value, n*len(cols))
	st.keys = make([][]relation.Value, len(cols))
	for d := range cols {
		st.keys[d] = flat[d*n : (d+1)*n : (d+1)*n]
	}
	// Rows equal on every key keep their input order: both sorts break
	// ties by row id, so the emit order of duplicate tuples does not
	// depend on the sorting algorithm.
	tuples := a.Rel.Tuples
	byKeys := func(keys []int) func(i, j int32) int {
		return func(i, j int32) int {
			ti, tj := tuples[i], tuples[j]
			for _, c := range keys {
				if ti[c] != tj[c] {
					if ti[c] < tj[c] {
						return -1
					}
					return 1
				}
			}
			return cmp.Compare(i, j)
		}
	}
	if offsets > 0 {
		st.start = buf[n:]
		st.sortDense(tuples, cols, byKeys(cols[1:]))
	} else {
		for i := range st.rows {
			st.rows[i] = int32(i)
		}
		slices.SortFunc(st.rows, byKeys(cols))
		if len(cols) > 0 {
			gather(st.keys[0], st.rows, tuples, cols[0])
		}
	}
	for d := 1; d < len(cols); d++ {
		gather(st.keys[d], st.rows, tuples, cols[d])
	}
	st.initCursor()
	return st, nil
}

// sortDense sorts the rows of a dense depth-0 column by counting: it
// counts each value v into start[v−base+1], takes prefix sums, scatters
// the row ids in input order with start as the cursors and shifts start
// back by one, so that the rows holding base+i are [start[i],
// start[i+1]). It fills keys[0] from those bounds, reading no tuple,
// and sorts each block by the remaining columns with byRest.
func (st *atomState) sortDense(tuples []relation.Tuple, cols []int, byRest func(i, j int32) int) {
	c0, start := cols[0], st.start
	for _, t := range tuples {
		start[t[c0]-st.base+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for row, t := range tuples {
		i := t[c0] - st.base
		st.rows[start[i]] = int32(row)
		start[i]++
	}
	copy(start[1:], start)
	start[0] = 0
	key0 := st.keys[0]
	for i := range len(start) - 1 {
		lo, hi := start[i], start[i+1]
		if hi == lo {
			continue
		}
		v := st.base + relation.Value(i)
		for r := lo; r < hi; r++ {
			key0[r] = v
		}
		if len(cols) > 1 && hi-lo > 1 {
			slices.SortFunc(st.rows[lo:hi], byRest)
		}
	}
}

// gather writes column c of the sorted rows into dst.
func gather(dst []relation.Value, rows []int32, tuples []relation.Tuple, c int) {
	for r, row := range rows {
		dst[r] = tuples[row][c]
	}
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
