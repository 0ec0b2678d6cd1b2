package topk

import (
	"math"

	"repro/internal/heap"
	"repro/internal/relation"
)

// JStar implements the J* multiway rank join (Natsev et al., cited in
// §2 of the tutorial): an A* search over partial join assignments. A
// search state binds one tuple in each of the first `level` streams and
// holds a cursor into stream `level`; its priority is an admissible
// upper bound — the scores already bound, plus the cursor tuple's
// score, plus every later stream's best score. Complete states pop in
// exact descending score order.
//
// Compared with an HRJN tree, J* never buffers join intermediates: its
// frontier holds partial assignments instead, trading hash-table memory
// for queue size. Inputs join naturally on shared attribute names; the
// output score is the sum of the matched tuples' weights.
type JStar struct {
	streams []*Scan
	attrs   []string
	// fill[i]: stream i's columns that introduce new output columns;
	// check[i]: stream i's columns that must agree with earlier streams.
	fill  [][]colMap
	check [][]colMap
	// restBest[i] = Σ_{j ≥ i} best score of stream j.
	restBest []float64
	pq       heap.Heap[jstarState]
	Stats    JStarStats
}

type colMap struct {
	streamCol int
	outCol    int
}

// JStarStats counts the search work.
type JStarStats struct {
	// Expanded counts popped states.
	Expanded int
	// MaxQueue is the frontier's high-water mark.
	MaxQueue int
}

// bindNode is one link of the bound-prefix chain: stream `stream` is
// bound to its tuple at sorted position `depth`.
type bindNode struct {
	parent *bindNode
	stream int
	depth  int
}

// jstarState is one search state, queued under its bound.
type jstarState struct {
	chain *bindNode // bound tuples for streams 0..level-1
	level int       // next stream to bind
	depth int       // cursor into stream `level`
}

// NewJStar builds the operator over the given relations.
func NewJStar(rels ...*relation.Relation) *JStar {
	j := &JStar{}
	var attrs []string
	attrIndex := func(a string) int {
		for i, x := range attrs {
			if x == a {
				return i
			}
		}
		return -1
	}
	for _, r := range rels {
		sc := NewScan(r)
		j.streams = append(j.streams, sc)
		var fills, checks []colMap
		for c, a := range r.Attrs {
			if oc := attrIndex(a); oc >= 0 {
				checks = append(checks, colMap{streamCol: c, outCol: oc})
			} else {
				attrs = append(attrs, a)
				fills = append(fills, colMap{streamCol: c, outCol: len(attrs) - 1})
			}
		}
		j.fill = append(j.fill, fills)
		j.check = append(j.check, checks)
	}
	j.attrs = attrs
	m := len(rels)
	j.restBest = make([]float64, m+1)
	for i := m - 1; i >= 0; i-- {
		top := 0.0
		if rels[i].Len() > 0 {
			top = j.scoreAt(i, 0)
		}
		j.restBest[i] = j.restBest[i+1] + top
	}
	j.pq = heap.New[jstarState](true)
	nonEmpty := m > 0
	for _, r := range rels {
		if r.Len() == 0 {
			nonEmpty = false
		}
	}
	if nonEmpty {
		j.pq.Push(j.restBest[0], jstarState{level: 0, depth: 0})
	}
	return j
}

// scoreAt returns stream i's score at sorted position depth.
func (j *JStar) scoreAt(i, depth int) float64 {
	sc := j.streams[i]
	return sc.rel.Weights[sc.order[depth]]
}

// tupleAt returns stream i's tuple at sorted position depth.
func (j *JStar) tupleAt(i, depth int) relation.Tuple {
	sc := j.streams[i]
	return sc.rel.Tuples[sc.order[depth]]
}

// chainScore sums the bound tuples' scores.
func (j *JStar) chainScore(chain *bindNode) float64 {
	s := 0.0
	for n := chain; n != nil; n = n.parent {
		s += j.scoreAt(n.stream, n.depth)
	}
	return s
}

// bound computes the admissible upper bound of a state: bound prefix +
// cursor tuple + best of all later streams.
func (j *JStar) stateBound(chain *bindNode, level, depth int) float64 {
	if level < len(j.streams) && depth >= len(j.streams[level].order) {
		return math.Inf(-1)
	}
	s := j.chainScore(chain)
	if level < len(j.streams) {
		s += j.scoreAt(level, depth) + j.restBest[level+1]
	}
	return s
}

// Attrs returns the output schema.
func (j *JStar) Attrs() []string { return j.attrs }

// Bound returns an upper bound on all future scores (for composability
// with the ScoredIterator contract).
func (j *JStar) Bound() float64 {
	if bound, _, ok := j.pq.Peek(); ok {
		return bound
	}
	return math.Inf(-1)
}

// Next returns the next join result in descending score order.
func (j *JStar) Next() (relation.Tuple, float64, bool) {
	for {
		bound, st, ok := j.pq.Pop()
		if !ok {
			return nil, 0, false
		}
		j.Stats.Expanded++
		if st.level == len(j.streams) {
			out := make(relation.Tuple, len(j.attrs))
			for n := st.chain; n != nil; n = n.parent {
				tup := j.tupleAt(n.stream, n.depth)
				for _, fm := range j.fill[n.stream] {
					out[fm.outCol] = tup[fm.streamCol]
				}
			}
			return out, bound, true
		}
		// Successor 1: advance the cursor within stream `level`.
		if st.depth+1 < len(j.streams[st.level].order) {
			j.pq.Push(j.stateBound(st.chain, st.level, st.depth+1),
				jstarState{chain: st.chain, level: st.level, depth: st.depth + 1})
		}
		// Successor 2: bind the cursor tuple if it joins with the prefix.
		if j.compatible(st.chain, st.level, st.depth) {
			chain := &bindNode{parent: st.chain, stream: st.level, depth: st.depth}
			j.pq.Push(j.stateBound(chain, st.level+1, 0),
				jstarState{chain: chain, level: st.level + 1, depth: 0})
		}
		if j.pq.Len() > j.Stats.MaxQueue {
			j.Stats.MaxQueue = j.pq.Len()
		}
	}
}

// compatible checks that stream `level`'s tuple at `depth` agrees with
// the bound prefix on all shared output columns.
func (j *JStar) compatible(chain *bindNode, level, depth int) bool {
	if len(j.check[level]) == 0 {
		return true
	}
	tup := j.tupleAt(level, depth)
	for _, cm := range j.check[level] {
		v, ok := j.chainValue(chain, cm.outCol)
		if ok && v != tup[cm.streamCol] {
			return false
		}
	}
	return true
}

// chainValue finds the value of an output column within the bound chain.
func (j *JStar) chainValue(chain *bindNode, outCol int) (relation.Value, bool) {
	for n := chain; n != nil; n = n.parent {
		tup := j.tupleAt(n.stream, n.depth)
		for _, fm := range j.fill[n.stream] {
			if fm.outCol == outCol {
				return tup[fm.streamCol], true
			}
		}
	}
	return 0, false
}
