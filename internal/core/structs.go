package core

import (
	"sort"

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

type rowPi struct {
	row int32
	pi  float64
}

// makeStructFn builds the variant's structure for one group of a node.
type makeStructFn func(n *dp.Node, g *dp.Group) candStruct

func structFactory(v Variant, agg ranking.Aggregate) makeStructFn {
	less := func(a, b rowPi) bool { return agg.Less(a.pi, b.pi) }
	pairs := func(n *dp.Node, g *dp.Group) []rowPi {
		ps := make([]rowPi, len(g.Rows))
		for i, r := range g.Rows {
			ps[i] = rowPi{row: r, pi: n.Pi[r]}
		}
		return ps
	}
	switch v {
	case Eager:
		return func(n *dp.Node, g *dp.Group) candStruct {
			ps := pairs(n, g)
			sort.Slice(ps, func(i, j int) bool { return less(ps[i], ps[j]) })
			return &sortedStruct{ps: ps}
		}
	case Lazy:
		return func(n *dp.Node, g *dp.Group) candStruct {
			return &lazyStruct{inc: heap.NewIncSort(less, pairs(n, g))}
		}
	case Quick:
		return func(n *dp.Node, g *dp.Group) candStruct {
			return &quickStruct{inc: heap.NewIncQuick(less, pairs(n, g))}
		}
	case Take2:
		return func(n *dp.Node, g *dp.Group) candStruct {
			h := heap.NewFromSlice(less, pairs(n, g))
			return &heapStruct{ps: h.Items()}
		}
	case All:
		return func(n *dp.Node, g *dp.Group) candStruct {
			ps := pairs(n, g)
			// Best to the front; the rest stay unsorted.
			if len(ps) > 0 {
				ps[0], ps[g.BestIdx] = ps[g.BestIdx], ps[0]
			}
			return &allStruct{ps: ps}
		}
	default:
		panic("core: not a PART variant: " + string(v))
	}
}

// sortedStruct: fully sorted candidate list (Eager).
type sortedStruct struct{ ps []rowPi }

func (s *sortedStruct) at(idx int32) (int32, float64, bool) {
	if int(idx) >= len(s.ps) {
		return 0, 0, false
	}
	p := s.ps[idx]
	return p.row, p.pi, true
}

func (s *sortedStruct) successors(idx int32, buf []int32) []int32 {
	if int(idx+1) < len(s.ps) {
		buf = append(buf, idx+1)
	}
	return buf
}

// lazyStruct: incrementally heap-sorted candidate list (Lazy).
type lazyStruct struct{ inc *heap.IncSort[rowPi] }

func (s *lazyStruct) at(idx int32) (int32, float64, bool) {
	p, ok := s.inc.Get(int(idx))
	if !ok {
		return 0, 0, false
	}
	return p.row, p.pi, true
}

func (s *lazyStruct) successors(idx int32, buf []int32) []int32 {
	if int(idx+1) < s.inc.Total() {
		buf = append(buf, idx+1)
	}
	return buf
}

// quickStruct: incrementally quicksorted candidate list (Quick).
type quickStruct struct{ inc *heap.IncQuick[rowPi] }

func (s *quickStruct) at(idx int32) (int32, float64, bool) {
	p, ok := s.inc.Get(int(idx))
	if !ok {
		return 0, 0, false
	}
	return p.row, p.pi, true
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
type heapStruct struct{ ps []rowPi }

func (s *heapStruct) at(idx int32) (int32, float64, bool) {
	if int(idx) >= len(s.ps) {
		return 0, 0, false
	}
	p := s.ps[idx]
	return p.row, p.pi, true
}

func (s *heapStruct) successors(idx int32, buf []int32) []int32 {
	if l := 2*idx + 1; int(l) < len(s.ps) {
		buf = append(buf, l)
	}
	if r := 2*idx + 2; int(r) < len(s.ps) {
		buf = append(buf, r)
	}
	return buf
}

// allStruct: position 0 is the best; all other positions are successors
// of 0 and have no successors themselves (All).
type allStruct struct{ ps []rowPi }

func (s *allStruct) at(idx int32) (int32, float64, bool) {
	if int(idx) >= len(s.ps) {
		return 0, 0, false
	}
	p := s.ps[idx]
	return p.row, p.pi, true
}

func (s *allStruct) successors(idx int32, buf []int32) []int32 {
	if idx == 0 {
		for i := int32(1); int(i) < len(s.ps); i++ {
			buf = append(buf, i)
		}
	}
	return buf
}
