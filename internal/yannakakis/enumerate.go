package yannakakis

import (
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Result is one join result: the flat output tuple plus its aggregated
// weight.
type Result struct {
	Tuple  relation.Tuple
	Weight float64
}

// Enumerator produces the results of an acyclic query one at a time in
// unspecified order with constant delay (in data complexity) after linear
// preprocessing. This is the constant-delay enumeration baseline the
// tutorial connects to in §4: Õ(tprep + r) total time, but no ranking.
type Enumerator struct {
	q        *Query
	agg      ranking.Aggregate
	red      []*relation.Relation
	order    []int
	idx      []*relation.Index // per node: index on attrs shared with parent
	pCols    [][]int           // per node: parent's columns for those attrs
	outAttrs []string
	emits    []emitSpec

	// Iteration state: one candidate cursor per order position.
	cand    [][]int32
	pos     []int
	started bool
	done    bool
}

type emitSpec struct {
	orderPos int // position in DFS order
	col      int // column in that node's reduced relation
	outPos   int // position in the output tuple
}

// NewEnumerator prepares constant-delay enumeration: full reduction plus
// one hash index per tree edge.
func NewEnumerator(q *Query, agg ranking.Aggregate) *Enumerator {
	red := q.FullReduce()
	n := len(red)
	e := &Enumerator{
		q:     q,
		agg:   agg,
		red:   red,
		order: q.Tree.Order,
		idx:   make([]*relation.Index, n),
		pCols: make([][]int, n),
		cand:  make([][]int32, len(q.Tree.Order)),
		pos:   make([]int, len(q.Tree.Order)),
	}
	for _, u := range e.order {
		p := q.Tree.Parent[u]
		if p < 0 {
			continue
		}
		shared := red[p].SharedAttrs(red[u])
		e.idx[u] = relation.MustIndex(red[u], shared...)
		cols, err := red[p].AttrIndexes(shared)
		if err != nil {
			panic(err)
		}
		e.pCols[u] = cols
	}
	// Output schema and emit map: each variable is emitted by the first
	// node (in DFS preorder) whose edge contains it.
	seen := make(map[string]bool)
	for opos, u := range e.order {
		for col, v := range red[u].Attrs {
			if !seen[v] {
				seen[v] = true
				e.emits = append(e.emits, emitSpec{orderPos: opos, col: col, outPos: len(e.outAttrs)})
				e.outAttrs = append(e.outAttrs, v)
			}
		}
	}
	return e
}

// OutputAttrs returns the output schema.
func (e *Enumerator) OutputAttrs() []string { return e.outAttrs }

// nodeAt returns the tree node at order position opos.
func (e *Enumerator) nodeAt(opos int) int { return e.order[opos] }

// orderPosOfParent maps an order position to its parent's order position.
func (e *Enumerator) orderPosOfParent(opos int) int {
	p := e.q.Tree.Parent[e.nodeAt(opos)]
	for i, u := range e.order {
		if u == p {
			return i
		}
	}
	return -1
}

// fill recomputes candidate lists for order positions from start onward,
// descending greedily. It reports false if some list is empty (possible
// only when a relation is empty, since full reduction guarantees global
// consistency).
func (e *Enumerator) fill(start int) bool {
	for opos := start; opos < len(e.order); opos++ {
		u := e.nodeAt(opos)
		if e.q.Tree.Parent[u] < 0 {
			rows := make([]int32, e.red[u].Len())
			for i := range rows {
				rows[i] = int32(i)
			}
			e.cand[opos] = rows
		} else {
			pp := e.orderPosOfParent(opos)
			parentRel := e.red[e.nodeAt(pp)]
			parentRow := e.cand[pp][e.pos[pp]]
			e.cand[opos] = e.idx[u].Rows(e.idx[u].FindBy(parentRel.Tuples[parentRow], e.pCols[u]))
		}
		if len(e.cand[opos]) == 0 {
			return false
		}
		e.pos[opos] = 0
	}
	return true
}

// Next returns the next result. It reports false when enumeration is
// complete.
func (e *Enumerator) Next() (Result, bool) {
	if e.done {
		return Result{}, false
	}
	if !e.started {
		e.started = true
		if !e.fill(0) {
			e.done = true
			return Result{}, false
		}
		return e.emit(), true
	}
	// Odometer: advance the deepest position that still has candidates;
	// everything after it is refilled.
	for opos := len(e.order) - 1; opos >= 0; opos-- {
		if e.pos[opos]+1 < len(e.cand[opos]) {
			e.pos[opos]++
			if e.fill(opos + 1) {
				return e.emit(), true
			}
			// Full reduction guarantees fill succeeds; reaching here
			// means an empty relation, i.e. no results at all.
			e.done = true
			return Result{}, false
		}
	}
	e.done = true
	return Result{}, false
}

func (e *Enumerator) emit() Result {
	out := make(relation.Tuple, len(e.outAttrs))
	w := e.agg.Identity()
	for opos, u := range e.order {
		row := e.cand[opos][e.pos[opos]]
		w = e.agg.Combine(w, e.red[u].Weights[row])
	}
	for _, sp := range e.emits {
		u := e.nodeAt(sp.orderPos)
		row := e.cand[sp.orderPos][e.pos[sp.orderPos]]
		out[sp.outPos] = e.red[u].Tuples[row][sp.col]
	}
	return Result{Tuple: out, Weight: w}
}

// Drain collects at most limit results (limit ≤ 0 means all).
func (e *Enumerator) Drain(limit int) []Result {
	var out []Result
	for {
		r, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, r)
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
}
