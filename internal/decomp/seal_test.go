package decomp

import (
	"context"
	"testing"
)

// TestCycleTreeSealed: a canonical cycle plan is never patched, so its
// bag tree's dp.Plan holds no reduction and keeps resident only the
// fully reduced rows it enumerates, while a searched GHD's plan, which
// the next epoch patches, keeps its reduction. On the c5 fixture the
// rows each node of the cycle plan holds are the full reducer's per-node
// counts over the same bags, which the bottom-up sweep alone leaves
// larger.
func TestCycleTreeSealed(t *testing.T) {
	var c5 shapeFixture
	for _, f := range shapeFixtures() {
		if f.name == "c5" {
			c5 = f
		}
	}
	fan, err := PrepareCycleSingleTree(c5.rels, sum)
	if err != nil {
		t.Fatal(err)
	}
	if fan.trees[0].plan.Patchable() {
		t.Fatal("the canonical 5-cycle plan keeps its reduction")
	}
	s := fan.shape
	ghd, _, err := GHDShape(s.trees[0].dec, s.Edges).Prepare(c5.rels, sum, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ghd.trees[0].plan.Patchable() {
		t.Fatal("a searched GHD plan dropped the reduction its next epoch patches from")
	}
	if ghd.Stats.TotalMaterialized != fan.Stats.TotalMaterialized {
		t.Fatalf("same decomposition materialised %d and %d rows", ghd.Stats.TotalMaterialized, fan.Stats.TotalMaterialized)
	}

	q, err := bagQuery(ghd.ghd.bags)
	if err != nil {
		t.Fatal(err)
	}
	red, err := q.ReduceKeep(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := fan.trees[0].t.Nodes
	bottomUp, final := 0, 0
	for pos, edge := range q.Tree.Order {
		if got, want := nodes[pos].Rel.Len(), red.Final[edge].Len(); got != want {
			t.Errorf("node %d holds %d rows, the full reducer keeps %d", pos, got, want)
		}
		bottomUp += red.BottomUp[edge].Len()
		final += red.Final[edge].Len()
	}
	t.Logf("c5 bag rows: %d materialised, %d after the bottom-up sweep, %d fully reduced", fan.Stats.TotalMaterialized, bottomUp, final)
	if bottomUp <= final {
		t.Fatalf("fixture leaves no dangling bottom-up rows (%d vs %d): the check proves nothing", bottomUp, final)
	}
}
