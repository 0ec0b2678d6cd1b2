package dp

import (
	"slices"

	"repro/internal/yannakakis"
)

// DeltaStats reports how much of an incremental rebuild was reused.
type DeltaStats struct {
	// Nodes is the join-tree size; Regrouped counts the nodes whose
	// candidate groups were rebuilt, which are the Changed ones (the
	// rest share the old plan's groups and reduced relations).
	Nodes     int
	Regrouped int
	// Changed flags, per preorder position, the nodes whose reduced
	// content differs from the old plan — the seed set InstantiateDelta
	// propagates π recomputation from. Without a predecessor every node
	// is flagged.
	Changed []bool
	// Recounted counts the nodes whose exact counts were recomputed when
	// the old plan held counts to carry forward; 0 when it held none.
	Recounted int
}

// sameTree reports whether old lays out the join tree of t, the layout
// of q (same preorder positions, parent/child wiring, and attribute
// names) — the precondition for position-wise delta comparison and for
// sharing old's nodes with t.
func (t *Plan) sameTree(old *Plan, q *yannakakis.Query) bool {
	if old == nil || len(old.nodes) != len(t.nodes) {
		return false
	}
	for pos, n := range t.nodes {
		o := old.nodes[pos]
		if o.Parent != n.Parent || !slices.Equal(o.Children, n.Children) || !slices.Equal(o.Rel.Attrs, q.H.Edges[q.Tree.Order[pos]].Vars) {
			return false
		}
	}
	return true
}

// groupBestsDiffer reports whether a recomputed node presents different
// π inputs to its parent than the old epoch's node did. When the node's
// reduced content changed, its group structure may have shifted, so the
// parent must recompute regardless; otherwise group indices align and
// only the per-group BestPi values matter.
func groupBestsDiffer(fresh, old *Node, contentChanged bool) bool {
	return contentChanged || !slices.Equal(fresh.BestPi, old.BestPi)
}
