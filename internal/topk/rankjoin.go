package topk

import (
	"math"

	"repro/internal/heap"
	"repro/internal/relation"
)

// ScoredIterator yields tuples in descending score order and exposes an
// upper bound on the score of anything it may yield in the future — the
// contract rank-join operators compose over (§2's HRJN family).
type ScoredIterator interface {
	// Next returns the next tuple and its score; ok=false when drained.
	Next() (t relation.Tuple, score float64, ok bool)
	// Bound is an upper bound on all future scores (-Inf when drained).
	Bound() float64
	// Attrs is the tuple schema.
	Attrs() []string
}

// Scan iterates a relation in descending weight order (the base access
// path of rank join: a pre-sorted input table).
type Scan struct {
	rel   *relation.Relation
	order []int32
	pos   int
}

// NewScan sorts the relation by descending weight and returns the scan.
func NewScan(rel *relation.Relation) *Scan {
	order := make([]int32, rel.Len())
	for i := range order {
		order[i] = int32(i)
	}
	// Descending by weight: reading the last rank sorts order in place.
	inc := heap.NewIncSort(rel.Weights, true, order)
	if len(order) > 0 {
		inc.Get(len(order) - 1)
	}
	return &Scan{rel: rel, order: order}
}

// Next implements ScoredIterator.
func (s *Scan) Next() (relation.Tuple, float64, bool) {
	if s.pos >= len(s.order) {
		return nil, 0, false
	}
	row := s.order[s.pos]
	s.pos++
	return s.rel.Tuples[row], s.rel.Weights[row], true
}

// Bound implements ScoredIterator.
func (s *Scan) Bound() float64 {
	if s.pos >= len(s.order) {
		return math.Inf(-1)
	}
	return s.rel.Weights[s.order[s.pos]]
}

// Attrs implements ScoredIterator.
func (s *Scan) Attrs() []string { return s.rel.Attrs }

// RankJoinStats counts the RAM-model footprint of a rank-join operator:
// the tutorial's §2 point is that these buffers can grow as large as a
// full join even when k is tiny.
type RankJoinStats struct {
	PulledLeft, PulledRight int
	// Joined counts result tuples formed and buffered in the output queue.
	Joined int
	// MaxQueue is the high-water mark of the output priority queue.
	MaxQueue int
}

// HRJN is the hash rank join operator: it pulls from whichever input has
// the higher bound, joins new tuples against the other side's hash
// table, buffers results in a priority queue, and emits a result only
// once its score is at least the corner-bound threshold. HRJN itself
// implements ScoredIterator, so operators compose into left-deep trees
// for multiway top-k joins (J*/HRJN* style).
type HRJN struct {
	left, right ScoredIterator
	attrs       []string
	shared      []string
	lCols       []int
	rCols       []int
	rKeep       []int

	// The tuples seen so far on each side, by join key: both sides share
	// one table of keys, and lSeen[id] / rSeen[id] hold key id's tuples.
	keys         *relation.KeyTable
	lSeen, rSeen [][]scored
	firstL       float64
	firstR       float64
	startedL     bool
	startedR     bool
	pq           heap.Heap[relation.Tuple] // joined results by score
	pull         bool                      // false: pull left next on ties
	Stats        RankJoinStats
}

type scored struct {
	t relation.Tuple
	s float64
}

// NewHRJN builds a rank join of two scored inputs on their shared
// attributes (natural join; score of an output = sum of input scores).
func NewHRJN(left, right ScoredIterator) *HRJN {
	la, ra := left.Attrs(), right.Attrs()
	lrel := relation.New("", la...)
	rrel := relation.New("", ra...)
	shared := lrel.SharedAttrs(rrel)
	lCols, _ := lrel.AttrIndexes(shared)
	rCols, _ := rrel.AttrIndexes(shared)
	attrs := append([]string(nil), la...)
	var rKeep []int
	for i, a := range ra {
		if lrel.AttrIndex(a) < 0 {
			attrs = append(attrs, a)
			rKeep = append(rKeep, i)
		}
	}
	return &HRJN{
		left: left, right: right,
		attrs: attrs, shared: shared,
		lCols: lCols, rCols: rCols, rKeep: rKeep,
		keys: relation.NewKeyTable(len(shared), 0),
		pq:   heap.New[relation.Tuple](true),
	}
}

// Attrs implements ScoredIterator.
func (h *HRJN) Attrs() []string { return h.attrs }

// threshold is the HRJN corner bound: any future result must use a
// future tuple from one side joined with a (≤ first) tuple of the other.
func (h *HRJN) threshold() float64 {
	fl, fr := h.firstL, h.firstR
	if !h.startedL {
		fl = h.left.Bound()
	}
	if !h.startedR {
		fr = h.right.Bound()
	}
	a := h.left.Bound() + fr
	b := fl + h.right.Bound()
	return math.Max(a, b)
}

// Bound implements ScoredIterator.
func (h *HRJN) Bound() float64 {
	t := h.threshold()
	if s, _, ok := h.pq.Peek(); ok && s > t {
		return s
	}
	return t
}

// keyID returns the id of t's join key, new to both sides if unseen.
func (h *HRJN) keyID(t relation.Tuple, cols []int) int {
	key := make([]relation.Value, len(cols))
	for i, c := range cols {
		key[i] = t[c]
	}
	id, added := h.keys.Insert(key)
	if added {
		h.lSeen, h.rSeen = append(h.lSeen, nil), append(h.rSeen, nil)
	}
	return id
}

// Next implements ScoredIterator: the classic HRJN loop.
func (h *HRJN) Next() (relation.Tuple, float64, bool) {
	for {
		if s, t, ok := h.pq.Peek(); ok && s >= h.threshold() {
			h.pq.Pop()
			return t, s, true
		}
		// Pull from the side with the larger bound (ties alternate).
		lb, rb := h.left.Bound(), h.right.Bound()
		if math.IsInf(lb, -1) && math.IsInf(rb, -1) {
			// Inputs drained: flush the queue.
			if s, t, ok := h.pq.Pop(); ok {
				return t, s, true
			}
			return nil, 0, false
		}
		fromLeft := lb > rb || (lb == rb && !h.pull)
		h.pull = !h.pull
		if fromLeft {
			t, s, ok := h.left.Next()
			if !ok {
				continue
			}
			h.Stats.PulledLeft++
			if !h.startedL {
				h.startedL, h.firstL = true, s
			}
			k := h.keyID(t, h.lCols)
			h.lSeen[k] = append(h.lSeen[k], scored{t: t, s: s})
			for _, r := range h.rSeen[k] {
				h.emit(t, s, r.t, r.s)
			}
		} else {
			t, s, ok := h.right.Next()
			if !ok {
				continue
			}
			h.Stats.PulledRight++
			if !h.startedR {
				h.startedR, h.firstR = true, s
			}
			k := h.keyID(t, h.rCols)
			h.rSeen[k] = append(h.rSeen[k], scored{t: t, s: s})
			for _, l := range h.lSeen[k] {
				h.emit(l.t, l.s, t, s)
			}
		}
	}
}

func (h *HRJN) emit(lt relation.Tuple, ls float64, rt relation.Tuple, rs float64) {
	out := make(relation.Tuple, 0, len(h.attrs))
	out = append(out, lt...)
	for _, c := range h.rKeep {
		out = append(out, rt[c])
	}
	h.pq.Push(ls+rs, out)
	h.Stats.Joined++
	if h.pq.Len() > h.Stats.MaxQueue {
		h.Stats.MaxQueue = h.pq.Len()
	}
}

// RankJoinTree builds a left-deep HRJN tree over the relations (each
// scanned in descending weight order) and returns the root operator plus
// the per-operator stats for inspection.
func RankJoinTree(rels ...*relation.Relation) (*HRJN, []*HRJN) {
	if len(rels) < 2 {
		panic("topk: rank join needs at least two inputs")
	}
	var ops []*HRJN
	var cur ScoredIterator = NewScan(rels[0])
	for _, r := range rels[1:] {
		op := NewHRJN(cur, NewScan(r))
		ops = append(ops, op)
		cur = op
	}
	return ops[len(ops)-1], ops
}

// TopK drains up to k results from a scored iterator.
func TopK(it ScoredIterator, k int) []ScoredTuple {
	var out []ScoredTuple
	for len(out) < k {
		t, s, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, ScoredTuple{Tuple: t, Score: s})
	}
	return out
}

// ScoredTuple is a scored join result.
type ScoredTuple struct {
	Tuple relation.Tuple
	Score float64
}
