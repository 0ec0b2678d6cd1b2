package dp

import (
	"runtime"
	"testing"

	"repro/internal/hypergraph"
)

// TestMemoHeldWeakly: concurrent and repeated Gets share one value while
// some caller holds it, and once none does, a collection empties the
// memo and the next Get builds anew.
func TestMemoHeldWeakly(t *testing.T) {
	var m Memo[[64]int]
	builds := 0
	build := func() *[64]int { builds++; return new([64]int) }
	held := m.Get(build)
	if again := m.Get(build); again != held || builds != 1 {
		t.Fatalf("a second Get built %d values, want the held one", builds)
	}
	runtime.GC()
	if m.p.Value() != held {
		t.Fatal("a collection emptied a memo whose value is held")
	}
	runtime.KeepAlive(held)
	held = nil
	runtime.GC()
	if m.p.Value() != nil {
		t.Fatal("an idle memo still holds its value after a collection")
	}
	m.Get(build)
	if builds != 2 {
		t.Fatalf("%d builds, want a rebuild after the collection", builds)
	}
}

// TestCandsSlotsPerGroup: a T-DP's table has one empty slot per group of
// every node, the same table while held, one table per kind.
func TestCandsSlotsPerGroup(t *testing.T) {
	rels := pathRels(
		[][3]float64{{1, 10, 1}, {1, 11, 5}, {2, 10, 2}},
		[][3]float64{{10, 100, 10}, {10, 101, 1}, {11, 100, 0}},
	)
	tdp := mustBuild(t, hypergraph.Path(2), rels, sum)
	c := tdp.Cands("Lazy")
	if tdp.Cands("Lazy") != c || tdp.Cands("Eager") == c {
		t.Fatal("Cands is not one table per kind")
	}
	groups := 0
	for pos, n := range tdp.Nodes {
		for g := range int32(n.Groups.Len()) {
			if c.Slot(pos, g) != &c.slots[groups] || c.Slot(pos, g).Load() != nil {
				t.Fatalf("node %d group %d: not the next empty slot", pos, g)
			}
			groups++
		}
	}
	if groups != len(c.slots) {
		t.Fatalf("%d slots for %d groups", len(c.slots), groups)
	}
}
