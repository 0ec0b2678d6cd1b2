package wcoj

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Instr counts the RAM-model work a join performed.
type Instr struct {
	// Seeks counts trie narrow, seekGE and nextBlock calls, one per call.
	// Generic-Join charges its driver atom one nextBlock per candidate
	// value, whose block is the driver's interval, and every other
	// participant one narrow; Leapfrog Triejoin charges its seekGEs and
	// one nextBlock per participant for each value they agree on. A
	// narrow binary-searches its first row, O(log n); the end of a
	// block and a leapfrog seek are found by galloping, O(log d) in the
	// distance d the cursor moves. On an atom whose first variable's
	// column is dense, a narrow or nextBlock of that variable reads its
	// offsets instead, O(1), and still counts one seek.
	Seeks int
	// Emits counts produced results.
	Emits int
}

// Emit receives one join result: the tuple of values aligned with the
// variable order and its aggregated weight. The tuple is borrowed: it is
// the join's own assignment, valid only during the call (like
// bufio.Scanner.Bytes), so a callback that keeps it copies it —
// relation.Builder.Add does. Returning false stops the join early (used
// by Boolean queries and top-k cutoffs).
type Emit func(t relation.Tuple, w float64) bool

// join is the shared driver for GenericJoin and LeapfrogTriejoin.
type driver struct {
	varOrder []string
	atoms    []*atomState
	// byVar[pos] lists (atom, its depth) for each atom containing the
	// pos-th variable.
	byVar    [][]atomDepth
	agg      ranking.Aggregate
	emit     Emit
	instr    *Instr
	assigned relation.Tuple
	leapfrog bool
	// cursors[pos] is leapfrogVar's row buffer at variable position pos,
	// one slot per participant (leapfrog drivers only).
	cursors [][]int32
	stopped bool
}

type atomDepth struct {
	atom  *atomState
	depth int
}

// newJoin sorts every atom into its trie and lays out the driver. With
// workers > 1 the atoms are sorted on that many goroutines, and the
// error is the lowest-indexed atom's, as the sequential loop reports.
func newJoin(ctx context.Context, workers int, atoms []Atom, varOrder []string, agg ranking.Aggregate, emit Emit, leapfrog bool) (*driver, error) {
	for i, v := range varOrder {
		if slices.Contains(varOrder[:i], v) {
			return nil, fmt.Errorf("wcoj: duplicate variable %s in order", v)
		}
	}
	j := &driver{
		varOrder: varOrder,
		atoms:    make([]*atomState, len(atoms)),
		byVar:    make([][]atomDepth, len(varOrder)),
		agg:      agg,
		emit:     emit,
		instr:    &Instr{},
		assigned: make(relation.Tuple, len(varOrder)),
		leapfrog: leapfrog,
	}
	if workers > 1 {
		err := parallel.ForEach(ctx, workers, len(atoms), func(i int) (err error) {
			j.atoms[i], err = newAtomState(atoms[i], varOrder)
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		for i, a := range atoms {
			st, err := newAtomState(a, varOrder)
			if err != nil {
				return nil, err
			}
			j.atoms[i] = st
		}
	}
	covered := make([]bool, len(varOrder))
	for _, st := range j.atoms {
		for d, pos := range st.globalPos {
			j.byVar[pos] = append(j.byVar[pos], atomDepth{atom: st, depth: d})
			covered[pos] = true
		}
	}
	for pos, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("wcoj: variable %s not covered by any atom", varOrder[pos])
		}
	}
	if leapfrog {
		j.allocCursors()
	}
	return j, nil
}

// allocCursors gives leapfrogVar one row slot per participant at every
// variable position, from one array, so the join allocates nothing per
// bound prefix.
func (j *driver) allocCursors() {
	n := 0
	for _, parts := range j.byVar {
		n += len(parts)
	}
	flat := make([]int32, n)
	j.cursors = make([][]int32, len(j.byVar))
	for pos, parts := range j.byVar {
		j.cursors[pos], flat = flat[:len(parts):len(parts)], flat[len(parts):]
	}
}

// GenericJoin runs the Generic-Join algorithm of Ngo, Ré and Rudra over
// the given atoms with the given global variable order, invoking emit for
// every result. It returns instrumentation counters.
func GenericJoin(atoms []Atom, varOrder []string, agg ranking.Aggregate, emit Emit) (*Instr, error) {
	j, err := newJoin(context.Background(), 1, atoms, varOrder, agg, emit, false)
	if err != nil {
		return nil, err
	}
	j.solve(0)
	return j.instr, nil
}

// LeapfrogTriejoin runs Veldhuizen's Leapfrog Triejoin: at each variable,
// all participating atoms leapfrog to their next common value instead of
// one atom driving and the others probing.
func LeapfrogTriejoin(atoms []Atom, varOrder []string, agg ranking.Aggregate, emit Emit) (*Instr, error) {
	j, err := newJoin(context.Background(), 1, atoms, varOrder, agg, emit, true)
	if err != nil {
		return nil, err
	}
	j.solve(0)
	return j.instr, nil
}

// solve extends the current partial assignment at variable position pos.
func (j *driver) solve(pos int) {
	if j.stopped {
		return
	}
	if pos == len(j.varOrder) {
		j.emitLeaf()
		return
	}
	parts := j.byVar[pos]
	if j.leapfrog {
		j.leapfrogVar(pos, parts)
		return
	}
	// Generic-Join: the atom with the smallest candidate interval drives,
	// one block per candidate value; the others narrow by search.
	di := driverOf(parts)
	st, d := parts[di].atom, parts[di].depth
	col := st.keys[d]
	for r, hi := st.iv[d][0], st.iv[d][1]; r < hi; {
		v := col[r]
		end := st.nextBlock(d, r)
		j.instr.Seeks++
		ok := true
		for i, p := range parts {
			if i == di {
				continue
			}
			j.instr.Seeks++
			if !p.atom.narrow(p.depth, v) {
				ok = false
				break
			}
		}
		if ok {
			st.iv[d+1] = [2]int32{r, end}
			j.assigned[pos] = v
			j.solve(pos + 1)
			if j.stopped {
				return
			}
		}
		r = end
	}
}

// driverOf returns the index of the participant whose interval at its
// depth is smallest, the first of equals: the atom whose blocks
// Generic-Join enumerates at this variable. solve and levelValues both
// pick it here, so the sequential and the coordinator passes agree.
func driverOf(parts []atomDepth) int {
	di := 0
	size := parts[0].atom.iv[parts[0].depth][1] - parts[0].atom.iv[parts[0].depth][0]
	for i, p := range parts[1:] {
		if s := p.atom.iv[p.depth][1] - p.atom.iv[p.depth][0]; s < size {
			di, size = i+1, s
		}
	}
	return di
}

// leapfrogVar intersects the candidate values of all participants at pos
// by leapfrogging.
func (j *driver) leapfrogVar(pos int, parts []atomDepth) {
	// cursors[i] is participant i's current row within its interval.
	cursors := j.cursors[pos]
	for i, p := range parts {
		cursors[i] = p.atom.iv[p.depth][0]
		if cursors[i] >= p.atom.iv[p.depth][1] {
			return
		}
	}
	for {
		// Find the maximum current value.
		maxV := parts[0].atom.keys[parts[0].depth][cursors[0]]
		argMax := 0
		for i := 1; i < len(parts); i++ {
			if v := parts[i].atom.keys[parts[i].depth][cursors[i]]; v > maxV {
				maxV, argMax = v, i
			}
		}
		// Seek everyone to ≥ maxV.
		agree := true
		for i, p := range parts {
			if i == argMax {
				continue
			}
			if p.atom.keys[p.depth][cursors[i]] < maxV {
				cursors[i] = p.atom.seekGE(p.depth, cursors[i], maxV)
				j.instr.Seeks++
				if cursors[i] >= p.atom.iv[p.depth][1] {
					return
				}
				if p.atom.keys[p.depth][cursors[i]] != maxV {
					agree = false
				}
			}
		}
		if agree {
			// Every participant stands on the first row of maxV's block,
			// so that block is its interval: recurse.
			for i, p := range parts {
				p.atom.iv[p.depth+1] = [2]int32{cursors[i], p.atom.nextBlock(p.depth, cursors[i])}
				j.instr.Seeks++
			}
			j.assigned[pos] = maxV
			j.solve(pos + 1)
			if j.stopped {
				return
			}
			// Advance the first participant past maxV, to the end of the
			// block found above: the recursion narrowed only deeper
			// intervals.
			p := parts[0]
			cursors[0] = p.atom.iv[p.depth+1][1]
			if cursors[0] >= p.atom.iv[p.depth][1] {
				return
			}
		}
	}
}

// emitLeaf produces results for the full assignment: one per combination
// of matching rows across atoms (bag semantics).
func (j *driver) emitLeaf() {
	j.emitAtom(0, j.agg.Identity())
}

func (j *driver) emitAtom(ai int, w float64) {
	if j.stopped {
		return
	}
	if ai == len(j.atoms) {
		j.instr.Emits++
		if !j.emit(j.assigned, w) {
			j.stopped = true
		}
		return
	}
	st := j.atoms[ai]
	d := len(st.keys)
	lo, hi := st.iv[d][0], st.iv[d][1]
	for r := lo; r < hi; r++ {
		j.emitAtom(ai+1, j.agg.Combine(w, st.rel.Weights[st.rows[r]]))
	}
}

// Materialize runs GenericJoin and collects the full output relation with
// schema varOrder. The output size is not known in advance, so the rows
// go through a relation.Builder: each result's values are copied straight
// into its chunks, which become the relation's storage, and Tuples and
// Weights are allocated once, at their final length. It cannot be
// canceled; MaterializeParallelHinted is the variant that takes a
// context.
func Materialize(atoms []Atom, varOrder []string, agg ranking.Aggregate) (*relation.Relation, *Instr, error) {
	return materialize(context.Background(), atoms, varOrder, agg)
}

// materialize is Materialize under a context: a done ctx stops the join
// (see collect) and ctx.Err() is returned with a nil relation.
func materialize(ctx context.Context, atoms []Atom, varOrder []string, agg ranking.Aggregate) (*relation.Relation, *Instr, error) {
	var b relation.Builder
	j, err := newJoin(ctx, 1, atoms, varOrder, agg, collect(ctx, &b), false)
	if err != nil {
		return nil, nil, err
	}
	j.solve(0)
	if j.stopped {
		return nil, nil, ctx.Err()
	}
	return relation.Concat("GJ", varOrder, &b), j.instr, nil
}

// collect returns the Emit that adds every result to b. It polls ctx
// only where b opens a new chunk — at most once per 4 096 results, so an
// emit costs nothing extra — and stops the driver once ctx is done.
func collect(ctx context.Context, b *relation.Builder) Emit {
	return func(t relation.Tuple, w float64) bool {
		return !b.Add(t, w) || ctx.Err() == nil
	}
}

// IsEmpty answers the Boolean query "does the join have any result?"
// with early termination at the first witness.
func IsEmpty(atoms []Atom, varOrder []string) (bool, *Instr, error) {
	found := false
	instr, err := GenericJoin(atoms, varOrder, ranking.SumCost, func(relation.Tuple, float64) bool {
		found = true
		return false
	})
	return !found, instr, err
}

// SuggestOrder returns a variable order for the given atoms using the
// standard cardinality heuristic: repeatedly pick the variable whose
// covering atoms have the smallest total size, preferring variables
// already connected to chosen ones. Any order is correct (results are
// order-independent); a good order shrinks intersection work.
func SuggestOrder(atoms []Atom) []string {
	type varInfo struct {
		name string
		size int
	}
	infos := map[string]*varInfo{}
	adj := map[string]map[string]bool{}
	for _, a := range atoms {
		for _, v := range a.Vars {
			if infos[v] == nil {
				infos[v] = &varInfo{name: v}
				adj[v] = map[string]bool{}
			}
			infos[v].size += a.Rel.Len()
		}
		for _, v := range a.Vars {
			for _, w := range a.Vars {
				if v != w {
					adj[v][w] = true
				}
			}
		}
	}
	var order []string
	chosen := map[string]bool{}
	connected := func(v string) bool {
		if len(order) == 0 {
			return true
		}
		for _, o := range order {
			if adj[v][o] {
				return true
			}
		}
		return false
	}
	for len(order) < len(infos) {
		var best *varInfo
		bestConn := false
		for _, vi := range infos {
			if chosen[vi.name] {
				continue
			}
			conn := connected(vi.name)
			switch {
			case best == nil,
				conn && !bestConn,
				conn == bestConn && vi.size < best.size,
				conn == bestConn && vi.size == best.size && vi.name < best.name:
				best = vi
				bestConn = conn
			}
		}
		order = append(order, best.name)
		chosen[best.name] = true
	}
	return order
}
