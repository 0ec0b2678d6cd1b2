package core

import (
	"slices"

	"repro/internal/dp"
	"repro/internal/heap"
	"repro/internal/ranking"
)

// A candidate structure orders the rows of one candidate group by their
// suffix weight π: a heap.Ranked of the group's row ids, 4 B a row,
// keyed by the node's π column in the ranking's direction. Position 0
// always holds the best candidate. The structures of a T-DP are built
// once per (variant, group) and shared by every iterator over it
// (dp.Cands): Eager's, Take2's and All's are final when built, Lazy's
// and Quick's are sorted further as iterators ask for later positions.
//
// The successor edges of a variant's structure span every position
// exactly once from position 0: a chain for the sorted variants, a
// binary tree for Take2, a star for All.

// succShape is the shape of a variant's successor edges.
type succShape uint8

const (
	chain succShape = iota // idx → idx+1 (Eager, Lazy, Quick)
	tree                   // idx → 2·idx+1, 2·idx+2 (Take2)
	star                   // 0 → every other position (All)
)

// shapeOf returns v's successor shape; v is a PART variant.
func shapeOf(v Variant) succShape {
	switch v {
	case Take2:
		return tree
	case All:
		return star
	}
	return chain
}

// buildStruct builds v's structure for group g of node n.
func buildStruct(v Variant, agg ranking.Aggregate, n *dp.Node, g int32) *heap.Ranked {
	ids, pi := slices.Clone(n.Groups.Rows(g)), n.Pi
	switch v {
	case Eager:
		slices.SortFunc(ids, func(a, b int32) int {
			switch {
			case agg.Less(pi[a], pi[b]):
				return -1
			case agg.Less(pi[b], pi[a]):
				return 1
			}
			return 0
		})
	case Lazy:
		return heap.SharedIncSort(pi, agg.Desc(), ids)
	case Quick:
		return heap.SharedIncQuick(pi, agg.Desc(), ids)
	case Take2:
		// Successors are heap children, and the heap property keeps
		// them from ranking better than their parent, which is all the
		// global queue needs.
		heap.Heapify(pi, agg.Desc(), ids)
	case All:
		// The first best to the front; the rest stay unsorted.
		best := 0
		for i, row := range ids {
			if agg.Less(pi[row], pi[ids[best]]) {
				best = i
			}
		}
		if len(ids) > 0 {
			ids[0], ids[best] = ids[best], ids[0]
		}
	default:
		panic("core: not a PART variant: " + string(v))
	}
	return heap.Final(ids)
}

// successors appends to buf the positions that directly follow idx in a
// structure of total positions with successor shape sh.
func successors(sh succShape, idx, total int32, buf []int32) []int32 {
	switch sh {
	case chain:
		if idx+1 < total {
			buf = append(buf, idx+1)
		}
	case tree:
		if l := 2*idx + 1; l < total {
			buf = append(buf, l)
		}
		if r := 2*idx + 2; r < total {
			buf = append(buf, r)
		}
	case star:
		if idx == 0 {
			for i := int32(1); i < total; i++ {
				buf = append(buf, i)
			}
		}
	}
	return buf
}
