package dp

import (
	"slices"

	"repro/internal/yannakakis"
)

// DeltaStats reports how much of an incremental rebuild was reused.
type DeltaStats struct {
	// Nodes is the join-tree size; Regrouped counts the nodes whose
	// candidate grouping had to be rebuilt (the rest share the old
	// plan's groupings and reduced relations).
	Nodes     int
	Regrouped int
	// Changed flags, per preorder position, the nodes whose reduced
	// content differs from the old plan — the seed set InstantiateDelta
	// propagates π recomputation from.
	Changed []bool
	// Recounted counts the nodes whose exact counts were recomputed when
	// the old plan held counts to carry forward; 0 when it held none.
	Recounted int
}

// planMatchesTree reports whether old lays out exactly the join tree
// of q (same preorder positions, parent/child wiring, and attribute
// names) — the precondition for position-wise delta comparison and for
// reusing old's node relations as the bottom-up sweep's predecessor.
func planMatchesTree(old *Plan, q *yannakakis.Query, posOf []int) bool {
	tree := q.Tree
	if old == nil || len(old.nodes) != len(tree.Order) {
		return false
	}
	for pos, edge := range tree.Order {
		n := old.nodes[pos]
		wantParent := -1
		if p := tree.Parent[edge]; p >= 0 {
			wantParent = posOf[p]
		}
		if n.Parent != wantParent || len(n.Children) != len(tree.Children[edge]) {
			return false
		}
		for i, c := range tree.Children[edge] {
			if n.Children[i] != posOf[c] {
				return false
			}
		}
		vars := q.H.Edges[edge].Vars
		if len(n.Rel.Attrs) != len(vars) {
			return false
		}
		for i, v := range vars {
			if n.Rel.Attrs[i] != v {
				return false
			}
		}
	}
	return true
}

// reuseGrouping gives node pos the old plan's grouping: its own
// Groups and the ChildGroup slot its parent holds for it.
// Valid when neither pos's nor its parent's reduced content changed.
func reuseGrouping(nodes, old []*Node, pos int) {
	nodes[pos].Groups = old[pos].Groups
	if p := nodes[pos].Parent; p >= 0 {
		ci := childIndex(nodes, p, pos)
		nodes[p].ChildGroup[ci] = old[p].ChildGroup[ci]
	}
}

// groupBestsDiffer reports whether a recomputed node presents different
// π inputs to its parent than the old epoch's node did. When the node's
// reduced content changed, its group structure may have shifted, so the
// parent must recompute regardless; otherwise group indices align and
// only the per-group BestPi values matter.
func groupBestsDiffer(fresh, old *Node, contentChanged bool) bool {
	return contentChanged || !slices.EqualFunc(fresh.Groups, old.Groups, func(a, b Group) bool { return a.BestPi == b.BestPi })
}
