package core

import (
	"slices"

	"repro/internal/dp"
	"repro/internal/heap"
	"repro/internal/ranking"
)

// candStruct orders the rows of one candidate group by their suffix
// weight π. Position 0 always holds the best candidate. successors(idx)
// returns the structure positions that directly follow idx in the
// variant's exploration order; together the successor edges span every
// position exactly once from position 0 (a chain for sorted variants, a
// binary tree for Take2, a star for All).
type candStruct interface {
	// at returns the row and its π at structure position idx; ok is
	// false past the end.
	at(idx int32) (row int32, pi float64, ok bool)
	// successors appends idx's successor positions to buf.
	successors(idx int32, buf []int32) []int32
}

// makeStructFn builds the variant's structure for one group of a node.
type makeStructFn func(n *dp.Node, g *dp.Group) candStruct

// structFactory returns the builder of v's structures. Each holds the
// group's row ids, 4 B a row, keyed by the node's π column in the
// ranking's direction.
func structFactory(v Variant, agg ranking.Aggregate) makeStructFn {
	desc := agg.Desc()
	switch v {
	case Eager:
		return func(n *dp.Node, g *dp.Group) candStruct {
			ids, pi := slices.Clone(g.Rows), n.Pi
			slices.SortFunc(ids, func(a, b int32) int {
				switch {
				case agg.Less(pi[a], pi[b]):
					return -1
				case agg.Less(pi[b], pi[a]):
					return 1
				}
				return 0
			})
			return &sortedStruct{idList{ids, pi}}
		}
	case Lazy:
		return func(n *dp.Node, g *dp.Group) candStruct {
			return &lazyStruct{inc: heap.NewIncSort(n.Pi, desc, slices.Clone(g.Rows)), pi: n.Pi}
		}
	case Quick:
		return func(n *dp.Node, g *dp.Group) candStruct {
			return &quickStruct{inc: heap.NewIncQuick(n.Pi, desc, slices.Clone(g.Rows)), pi: n.Pi}
		}
	case Take2:
		return func(n *dp.Node, g *dp.Group) candStruct {
			ids := slices.Clone(g.Rows)
			heap.Heapify(n.Pi, desc, ids)
			return &heapStruct{idList{ids, n.Pi}}
		}
	case All:
		return func(n *dp.Node, g *dp.Group) candStruct {
			ids := slices.Clone(g.Rows)
			// Best to the front; the rest stay unsorted.
			if len(ids) > 0 {
				ids[0], ids[g.BestIdx] = ids[g.BestIdx], ids[0]
			}
			return &allStruct{idList{ids, n.Pi}}
		}
	default:
		panic("core: not a PART variant: " + string(v))
	}
}

// idList is a group's row ids in a structure's order, with the node's π
// column they are keyed by.
type idList struct {
	ids []int32
	pi  []float64
}

func (l *idList) at(idx int32) (int32, float64, bool) {
	if int(idx) >= len(l.ids) {
		return 0, 0, false
	}
	row := l.ids[idx]
	return row, l.pi[row], true
}

// sortedStruct: fully sorted candidate list (Eager).
type sortedStruct struct{ idList }

func (s *sortedStruct) successors(idx int32, buf []int32) []int32 {
	if int(idx+1) < len(s.ids) {
		buf = append(buf, idx+1)
	}
	return buf
}

// lazyStruct: incrementally heap-sorted candidate list (Lazy).
type lazyStruct struct {
	inc heap.IncSort
	pi  []float64
}

func (s *lazyStruct) at(idx int32) (int32, float64, bool) {
	row, ok := s.inc.Get(int(idx))
	if !ok {
		return 0, 0, false
	}
	return row, s.pi[row], true
}

func (s *lazyStruct) successors(idx int32, buf []int32) []int32 {
	if int(idx+1) < s.inc.Total() {
		buf = append(buf, idx+1)
	}
	return buf
}

// quickStruct: incrementally quicksorted candidate list (Quick).
type quickStruct struct {
	inc heap.IncQuick
	pi  []float64
}

func (s *quickStruct) at(idx int32) (int32, float64, bool) {
	row, ok := s.inc.Get(int(idx))
	if !ok {
		return 0, 0, false
	}
	return row, s.pi[row], true
}

func (s *quickStruct) successors(idx int32, buf []int32) []int32 {
	if int(idx+1) < s.inc.Total() {
		buf = append(buf, idx+1)
	}
	return buf
}

// heapStruct: heap-ordered candidates; successors are heap children
// (Take2). The heap property guarantees successors never rank better
// than their parent, which is all the global queue needs.
type heapStruct struct{ idList }

func (s *heapStruct) successors(idx int32, buf []int32) []int32 {
	if l := 2*idx + 1; int(l) < len(s.ids) {
		buf = append(buf, l)
	}
	if r := 2*idx + 2; int(r) < len(s.ids) {
		buf = append(buf, r)
	}
	return buf
}

// allStruct: position 0 is the best; all other positions are successors
// of 0 and have no successors themselves (All).
type allStruct struct{ idList }

func (s *allStruct) successors(idx int32, buf []int32) []int32 {
	if idx == 0 {
		for i := int32(1); int(i) < len(s.ids); i++ {
			buf = append(buf, i)
		}
	}
	return buf
}
