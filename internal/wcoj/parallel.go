package wcoj

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// chunkFactor oversubscribes the partition count relative to the worker
// count so that moderate skew in per-value subtree sizes still
// load-balances across workers even before the heavy/light split kicks
// in.
const chunkFactor = 4

// SkewHints reports externally known heavy-hitter values for a query
// variable — typically the values the catalog counts as heavy in the
// columns bound to that variable. The planner treats hinted values as
// heavy at a lower local-weight threshold than unhinted ones, since a
// value that is frequent in the base data tends to own a deep join
// subtree even when its top-level interval product looks moderate. A
// nil function (or nil result) disables hinting; hints never change
// results, only the partition shapes.
type SkewHints func(variable string) []relation.Value

// clone returns an independent trie cursor over the same sorted atom
// data: the sorted rows, key columns, depth-0 offsets and global
// positions are immutable after newAtomState and shared read-only; only
// the interval stack and the seek hints are fresh.
func (st *atomState) clone() *atomState {
	c := *st
	c.initCursor()
	return &c
}

// clone returns an independent driver over cloned atom cursors, so
// several workers can descend disjoint subtrees of one join
// concurrently. Each clone counts work into its own Instr.
func (j *driver) clone(emit Emit) *driver {
	c := &driver{
		varOrder: j.varOrder,
		byVar:    make([][]atomDepth, len(j.varOrder)),
		agg:      j.agg,
		emit:     emit,
		instr:    &Instr{},
		assigned: make(relation.Tuple, len(j.varOrder)),
		leapfrog: j.leapfrog,
	}
	clones := make(map[*atomState]*atomState, len(j.atoms))
	for _, st := range j.atoms {
		cs := st.clone()
		clones[st] = cs
		c.atoms = append(c.atoms, cs)
	}
	for pos, parts := range j.byVar {
		for _, p := range parts {
			c.byVar[pos] = append(c.byVar[pos], atomDepth{atom: clones[p.atom], depth: p.depth})
		}
	}
	if c.leapfrog {
		c.allocCursors()
	}
	return c
}

// lvlVal is one surviving value of a coordinator intersection pass,
// together with a work proxy: the product of the value's interval sizes
// across the atoms containing the variable, the driver's block and the
// others' narrowed intervals. The proxy is free (the pass already found
// the intervals) and upper-bounds the number of row combinations the
// value's subtree can touch at this level.
type lvlVal struct {
	v relation.Value
	w float64
}

// levelValues runs exactly the position-pos loop of the sequential
// Generic-Join solve — same driver atom (driverOf), same nextBlock per
// candidate and narrow of every other participant, same Seeks
// accounting — but records the surviving values (with their
// interval-product work proxies) instead of recursing. Any variables
// before pos must already be bound on this driver's cursors. The
// recorded values, replayed on driver clones, reproduce the sequential
// emission order; the Seeks charged here plus the clones' subtree Seeks
// reproduce the sequential totals.
func (j *driver) levelValues(pos int) []lvlVal {
	parts := j.byVar[pos]
	di := driverOf(parts)
	st, d := parts[di].atom, parts[di].depth
	var vals []lvlVal
	for r, hi := st.iv[d][0], st.iv[d][1]; r < hi; {
		v := st.keys[d][r]
		end := st.nextBlock(d, r)
		j.instr.Seeks++
		ok := true
		w := 1.0
		for i, p := range parts {
			if i == di {
				w *= float64(end - r)
				continue
			}
			j.instr.Seeks++
			if !p.atom.narrow(p.depth, v) {
				ok = false
				break
			}
			w *= float64(p.atom.iv[p.depth+1][1] - p.atom.iv[p.depth+1][0])
		}
		if ok {
			vals = append(vals, lvlVal{v: v, w: w})
		}
		r = end
	}
	return vals
}

// bindUncounted binds the pos-th variable to an already-intersected
// value without touching Instr: the narrows replay work a coordinator
// pass already charged, so summing the coordinator's and the workers'
// counters reproduces the sequential totals exactly.
func (j *driver) bindUncounted(pos int, v relation.Value) {
	for _, p := range j.byVar[pos] {
		if !p.atom.narrow(p.depth, v) {
			panic("wcoj: parallel narrow must succeed on intersected value")
		}
	}
	j.assigned[pos] = v
}

// task is one unit of parallel work, in sequential output order: either
// a contiguous run of light first-variable values, or one sub-range of
// a heavy value's second-variable domain.
type task struct {
	light []relation.Value // light run (sub == nil)
	heavy relation.Value   // bound first variable when sub != nil
	sub   []relation.Value // second-variable values owned by this task
}

// run materializes the task's subtrees on a worker-local driver clone.
func (t *task) run(w *driver) {
	if t.sub == nil {
		for _, v := range t.light {
			w.bindUncounted(0, v)
			w.solve(1)
		}
		return
	}
	w.bindUncounted(0, t.heavy)
	for _, u := range t.sub {
		w.bindUncounted(1, u)
		w.solve(2)
	}
}

// planTasks splits the surviving first-variable values into balanced
// tasks following the heavy/light recipe of "Skew Strikes Back"
// (Ngo–Ré–Rudra): a value whose work proxy exceeds the per-task budget
// (total/chunks) is heavy, and instead of pinning its whole subtree to
// one worker the coordinator descends one more level — replaying the
// first-variable narrows uncounted, then running the sequential
// position-1 loop with its Seeks charged to the coordinator, exactly as
// solve(1) would — and spreads the surviving second-variable values
// over several tasks. Light values are packed greedily into contiguous
// runs of roughly one budget each. Hinted values (catalog heavy
// hitters) qualify as heavy at half the local threshold. Tasks are
// emitted in sequential traversal order, so concatenating their outputs
// by task index reproduces the sequential output bit-for-bit, and the
// Seeks charged here are precisely the ones the workers skip.
func (j *driver) planTasks(vals []lvlVal, chunks int, hints SkewHints) []task {
	total := 0.0
	for _, lv := range vals {
		total += lv.w
	}
	budget := total / float64(chunks)
	var hinted []relation.Value
	if hints != nil && len(j.varOrder) >= 2 {
		hinted = append(hinted, hints(j.varOrder[0])...)
		sort.Slice(hinted, func(a, b int) bool { return hinted[a] < hinted[b] })
	}
	isHinted := func(v relation.Value) bool {
		i := sort.Search(len(hinted), func(k int) bool { return hinted[k] >= v })
		return i < len(hinted) && hinted[i] == v
	}
	var tasks []task
	var run []relation.Value
	runW := 0.0
	flush := func() {
		if len(run) > 0 {
			tasks = append(tasks, task{light: run})
			run, runW = nil, 0
		}
	}
	for _, lv := range vals {
		heavy := len(j.varOrder) >= 2 && chunks > 1 &&
			(lv.w > budget || (lv.w*2 > budget && isHinted(lv.v)))
		if !heavy {
			if runW+lv.w > budget {
				flush()
			}
			run = append(run, lv.v)
			runW += lv.w
			continue
		}
		flush()
		// The first-variable narrows were already charged by the
		// top-level pass; the position-1 pass charges what sequential
		// solve(1) would for this value.
		j.bindUncounted(0, lv.v)
		subs := j.levelValues(1)
		if len(subs) == 0 {
			continue
		}
		subW := 0.0
		for _, s := range subs {
			subW += s.w
		}
		parts := int(subW / budget)
		if parts < 2 {
			parts = 2
		}
		if parts > chunks {
			parts = chunks
		}
		if parts > len(subs) {
			parts = len(subs)
		}
		target := subW / float64(parts)
		var sub []relation.Value
		acc := 0.0
		for _, s := range subs {
			if len(sub) > 0 && acc+s.w > target {
				tasks = append(tasks, task{heavy: lv.v, sub: sub})
				sub, acc = nil, 0
			}
			sub = append(sub, s.v)
			acc += s.w
		}
		if len(sub) > 0 {
			tasks = append(tasks, task{heavy: lv.v, sub: sub})
		}
	}
	flush()
	return tasks
}

// MaterializeParallelHinted is Materialize with the top of the join
// partitioned across workers, exploiting that Generic-Join decomposes
// over the first variable's domain. A coordinator pass intersects the
// top level once; planTasks then splits the surviving values into
// heavy/light tasks — heavy values are subdivided at the second
// variable across workers instead of pinned to one — and each task runs
// the existing sequential driver on an independent cursor clone. Before
// that, the atoms are sorted into their tries on the same workers, one
// task per atom.
//
// The result is bit-identical to Materialize — same rows in the same
// order (each task collects into its own relation.Builder and the
// builders' chunks are concatenated by task index) and the same Instr totals (the coordinator charges the
// intersection passes once; workers replay those narrows uncounted and
// sum their subtree counters after the barrier), and the same error for
// malformed atoms (the lowest-indexed one's) — whatever the worker
// count, hinting, or scheduling.
//
// workers <= 0 selects GOMAXPROCS; workers == 1 falls back to the
// sequential Materialize. Cancellation is checked between tasks and,
// on either path, wherever an output Builder opens a chunk: when ctx is
// done mid-materialisation no further tasks start, running ones stop
// within 4 096 results, and ctx.Err() is returned with nil rows.
//
// hints are catalog skew hints, nil for none: hinted first-variable
// values are treated as heavy at a lower threshold (see planTasks).
// Hints affect only load balance, never results or Instr totals.
func MaterializeParallelHinted(ctx context.Context, atoms []Atom, varOrder []string, agg ranking.Aggregate, workers int, hints SkewHints) (*relation.Rows, *Instr, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "generic-join")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("order", strings.Join(varOrder, ","))
		sp.SetAttr("workers", strconv.Itoa(parallel.Degree(workers)))
	}
	workers = parallel.Degree(workers)
	if workers <= 1 || len(varOrder) == 0 {
		return materialize(ctx, atoms, varOrder, agg)
	}
	base, err := newJoin(ctx, workers, atoms, varOrder, agg, nil, false)
	if err != nil {
		return nil, nil, err
	}
	vals := base.levelValues(0)
	tasks := base.planTasks(vals, workers*chunkFactor, hints)
	outs := make([]*relation.Builder, len(tasks))
	instrs := make([]*Instr, len(tasks))
	err = parallel.ForEach(ctx, workers, len(tasks), func(ti int) error {
		outs[ti] = new(relation.Builder)
		w := base.clone(collect(ctx, outs[ti]))
		tasks[ti].run(w)
		instrs[ti] = w.instr
		if w.stopped {
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	instr := base.instr
	for _, ti := range instrs {
		instr.Seeks += ti.Seeks
		instr.Emits += ti.Emits
	}
	return relation.ConcatRows(outs...), instr, nil
}

// TaskShares reports the parallel load balance of the two partitioning
// strategies on one query: for each, the fraction of the total measured
// join work (Seeks + Emits, counted by executing every task) that the
// single largest task owns. With idle workers, wall-clock is bounded
// below by the critical share, so on a skewed input legacy
// first-variable chunking sits near the heavy hitter's share of the
// join while the skew-aware planner approaches 1/(workers·chunkFactor)
// — a machine-independent record of the speedup the heavy/light split
// buys, meaningful even when measured on a single-core box.
func TaskShares(atoms []Atom, varOrder []string, workers int, hints SkewHints) (chunked, skewAware float64, err error) {
	workers = parallel.Degree(workers)
	if workers < 2 {
		workers = 2
	}
	// Clones share only the immutable sorted tries, so one driver per
	// strategy measures every task from a pristine cursor stack.
	taskWork := func(base *driver, run func(*driver)) float64 {
		w := base.clone(func(relation.Tuple, float64) bool { return true })
		run(w)
		return float64(w.instr.Seeks + w.instr.Emits)
	}
	maxShare := func(works []float64) float64 {
		total, max := 0.0, 0.0
		for _, w := range works {
			total += w
			if w > max {
				max = w
			}
		}
		if total == 0 {
			return 0
		}
		return max / total
	}

	base, jerr := newJoin(context.Background(), 1, atoms, varOrder, ranking.SumCost, func(relation.Tuple, float64) bool { return true }, false)
	if jerr != nil {
		return 0, 0, jerr
	}
	vals := base.levelValues(0)
	if len(vals) == 0 || len(varOrder) == 0 {
		return 0, 0, nil
	}

	chunks := workers * chunkFactor
	nChunks := chunks
	if nChunks > len(vals) {
		nChunks = len(vals)
	}
	chunkWorks := make([]float64, nChunks)
	for ci := range chunkWorks {
		lo, hi := ci*len(vals)/nChunks, (ci+1)*len(vals)/nChunks
		chunkWorks[ci] = taskWork(base, func(w *driver) {
			for _, lv := range vals[lo:hi] {
				w.bindUncounted(0, lv.v)
				w.solve(1)
			}
		})
	}

	// The chunked tasks ran on clones, so base's cursors still stand
	// where levelValues(0) left them, as planTasks expects.
	tasks := base.planTasks(vals, chunks, hints)
	taskWorks := make([]float64, len(tasks))
	for ti := range tasks {
		taskWorks[ti] = taskWork(base, func(w *driver) { tasks[ti].run(w) })
	}
	return maxShare(chunkWorks), maxShare(taskWorks), nil
}
