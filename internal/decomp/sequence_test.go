package decomp

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/workload"
)

// sequenceHash is the FNV-64a of a result sequence: every tuple value
// and the bits of every weight, in enumeration order.
func sequenceHash(rs []core.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rs {
		for _, v := range r.Tuple {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Weight))
		h.Write(b[:])
	}
	return h.Sum64()
}

// planSequenceGoldens are the lengths and hashes of every sequence
// TestPlanSequenceUnchanged enumerates. They are fixed values: a change
// to how a tree emits the canonical schema, or to the merge of a
// plan's trees, must leave every sequence, tie order included, as it
// is.
var planSequenceGoldens = map[string]struct {
	n    int
	hash uint64
}{
	"triangle/Lazy/sum":         {228, 0xbfa1ffa152942882},
	"triangle/Take2/sum":        {228, 0xbfa1ffa152942882},
	"triangle/Lazy/sum-desc":    {228, 0x32646fabcb5a0c82},
	"triangle/Take2/sum-desc":   {228, 0x32646fabcb5a0c82},
	"triangle/Lazy/max":         {228, 0x7ef521660000dc07},
	"triangle/Take2/max":        {228, 0x7ef521660000dc07},
	"triangle/Lazy/min-desc":    {228, 0xfb9e4d0f4cad214f},
	"triangle/Take2/min-desc":   {228, 0xfb9e4d0f4cad214f},
	"triangle/Lazy/product":     {228, 0x9544486ab35fc2dd},
	"triangle/Take2/product":    {228, 0x9544486ab35fc2dd},
	"four-cycle/Lazy/sum":       {1504, 0x1cd1d875ea09996d},
	"four-cycle/Take2/sum":      {1504, 0x6d2d5559c73242dd},
	"four-cycle/Lazy/sum-desc":  {1504, 0x2dbdfe8f46097c7d},
	"four-cycle/Take2/sum-desc": {1504, 0xdfe7bfe02a4effed},
	"four-cycle/Lazy/max":       {1504, 0xda5f17a5464bac9d},
	"four-cycle/Take2/max":      {1504, 0xcd074787e3aaa2dd},
	"four-cycle/Lazy/min-desc":  {1504, 0x985540cda2606945},
	"four-cycle/Take2/min-desc": {1504, 0xaf71ffcbd79ddc59},
	"four-cycle/Lazy/product":   {1504, 0xbe4b885b092d4181},
	"four-cycle/Take2/product":  {1504, 0xc7e8bfc2190d03d1},
	"fan5/Lazy/sum":             {9021, 0x680620a10c0c4aea},
	"fan5/Take2/sum":            {9021, 0xa15ce9e9017c4a3a},
	"fan5/Lazy/sum-desc":        {9021, 0x810c361b4810bcca},
	"fan5/Take2/sum-desc":       {9021, 0x9b78d067dc7b8b4a},
	"fan5/Lazy/max":             {9021, 0x9d6ddc3e37d84bfc},
	"fan5/Take2/max":            {9021, 0x4641f97c63fedc3c},
	"fan5/Lazy/min-desc":        {9021, 0x1a9792680f3086bc},
	"fan5/Take2/min-desc":       {9021, 0x179b54f9a380050},
	"fan5/Lazy/product":         {9021, 0xc30eb99094a3458d},
	"fan5/Take2/product":        {9021, 0xbd08fea62113fb6d},
	"bowtie/Lazy/sum":           {5360, 0x8b7c611790bd5a62},
	"bowtie/Take2/sum":          {5360, 0x8a01aef014289f22},
	"bowtie/Lazy/sum-desc":      {5360, 0x99f22cd3f2b8d682},
	"bowtie/Take2/sum-desc":     {5360, 0xa3f2492fa34dc142},
	"bowtie/Lazy/max":           {5360, 0x84010d9e428e2577},
	"bowtie/Take2/max":          {5360, 0xd66f93cc14c78a37},
	"bowtie/Lazy/min-desc":      {5360, 0xd8a1f0b6c8dd7dff},
	"bowtie/Take2/min-desc":     {5360, 0x96cd5577f4144d73},
	"bowtie/Lazy/product":       {5360, 0xa7020c8cc211c97b},
	"bowtie/Take2/product":      {5360, 0x8f4f431088d13d6b},
}

// TestPlanSequenceUnchanged pins the exact result sequence — tuples in
// the canonical schema, weight bits, the order among ties — of every
// shape whose trees emit in a schema of their own: the triangle's one
// bag, the submodular 4-cycle's three trees, the 5-cycle fan and a
// searched GHD, each under Lazy and Take2 and every ranking, with
// weights in {1, 2, 3}.
func TestPlanSequenceUnchanged(t *testing.T) {
	ties := func(r *workload.Rand) float64 { return float64(1 + r.Intn(3)) }
	g := workload.RandomGraph(14, 90, ties, 21)
	cycle := func(l int) []*relation.Relation {
		rels := make([]*relation.Relation, l)
		for i := range rels {
			rels[i] = g.Edges
		}
		return rels
	}
	bowtie := []hypergraph.Edge{
		hypergraph.E("R1", "A", "B"), hypergraph.E("R2", "B", "C"), hypergraph.E("R3", "C", "A"),
		hypergraph.E("R4", "A", "D"), hypergraph.E("R5", "D", "E"), hypergraph.E("R6", "E", "A"),
	}
	plans := []struct {
		name    string
		prepare func(agg ranking.Aggregate) (*Plan, error)
	}{
		{"triangle", func(agg ranking.Aggregate) (*Plan, error) {
			return PrepareTriangle([3]*relation.Relation(cycle(3)), agg)
		}},
		{"four-cycle", func(agg ranking.Aggregate) (*Plan, error) {
			return PrepareFourCycleSubmodular([4]*relation.Relation(cycle(4)), agg)
		}},
		{"fan5", func(agg ranking.Aggregate) (*Plan, error) {
			return PrepareCycleSingleTree(cycle(5), agg)
		}},
		{"bowtie", func(agg ranking.Aggregate) (*Plan, error) {
			d, err := hypergraph.New(bowtie...).DecomposeCosted(nil)
			if err != nil {
				return nil, err
			}
			return PrepareGHDWith(d, bowtie, cycle(6), agg)
		}},
	}
	for _, pc := range plans {
		for _, agg := range ranking.All {
			p, err := pc.prepare(agg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []core.Variant{core.Lazy, core.Take2} {
				key := fmt.Sprintf("%s/%s/%s", pc.name, v, agg.Name())
				it, err := p.Run(context.Background(), v)
				if err != nil {
					t.Fatal(err)
				}
				rs := core.Collect(it, 0)
				want, ok := planSequenceGoldens[key]
				if !ok {
					t.Fatalf("%s: no golden", key)
				}
				if got := sequenceHash(rs); len(rs) != want.n || got != want.hash {
					t.Errorf("%s: %d results with hash %#x, want %d with %#x", key, len(rs), got, want.n, want.hash)
				}
			}
		}
	}
}
