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
	"triangle/Lazy/sum":         {228, 0x9bad51778c880182},
	"triangle/Take2/sum":        {228, 0x9bad51778c880182},
	"triangle/Lazy/sum-desc":    {228, 0x11b667cafbc99882},
	"triangle/Take2/sum-desc":   {228, 0x11b667cafbc99882},
	"triangle/Lazy/max":         {228, 0x451dfb521a195867},
	"triangle/Take2/max":        {228, 0x451dfb521a195867},
	"triangle/Lazy/min-desc":    {228, 0xfb9e4d0f4cad214f},
	"triangle/Take2/min-desc":   {228, 0xfb9e4d0f4cad214f},
	"triangle/Lazy/product":     {228, 0xed9c485f658862bd},
	"triangle/Take2/product":    {228, 0xed9c485f658862bd},
	"four-cycle/Lazy/sum":       {1504, 0xec965f2cc658eed},
	"four-cycle/Take2/sum":      {1504, 0x1bd0dc4dfa4414fd},
	"four-cycle/Lazy/sum-desc":  {1504, 0xccbacbca4869edbd},
	"four-cycle/Take2/sum-desc": {1504, 0xa17d130c341b380d},
	"four-cycle/Lazy/max":       {1504, 0x3332ad98b0f5648d},
	"four-cycle/Take2/max":      {1504, 0x7f37576d495271fd},
	"four-cycle/Lazy/min-desc":  {1504, 0xad0ec30886521a5d},
	"four-cycle/Take2/min-desc": {1504, 0x224588896a101fad},
	"four-cycle/Lazy/product":   {1504, 0x6d5416ceb422be01},
	"four-cycle/Take2/product":  {1504, 0xa7535bab8807a991},
	"fan5/Lazy/sum":             {9021, 0x211432d1ebfba51a},
	"fan5/Take2/sum":            {9021, 0xdc58d82839dd78ca},
	"fan5/Lazy/sum-desc":        {9021, 0xffc9aa59f69f2f8a},
	"fan5/Take2/sum-desc":       {9021, 0xc5dd5b6800af4bba},
	"fan5/Lazy/max":             {9021, 0x44789af3f1734c2c},
	"fan5/Take2/max":            {9021, 0xdfe46592bb81d5fc},
	"fan5/Lazy/min-desc":        {9021, 0xbbf388cd6e6a4dac},
	"fan5/Take2/min-desc":       {9021, 0xc4e15d966c50e970},
	"fan5/Lazy/product":         {9021, 0x180d582f0e57aa4d},
	"fan5/Take2/product":        {9021, 0x9a2f7dcb1e15599d},
	"bowtie/Lazy/sum":           {5360, 0xc75e3151bca6ec82},
	"bowtie/Take2/sum":          {5360, 0x5bd179b90467e892},
	"bowtie/Lazy/sum-desc":      {5360, 0xb46e4553958b7a62},
	"bowtie/Take2/sum-desc":     {5360, 0x3533d964977b26f2},
	"bowtie/Lazy/max":           {5360, 0xaa8ede5d6823d377},
	"bowtie/Take2/max":          {5360, 0x89b930bb5ca66557},
	"bowtie/Lazy/min-desc":      {5360, 0xd8a1f0b6c8dd7dff},
	"bowtie/Take2/min-desc":     {5360, 0x96cd5577f4144d73},
	"bowtie/Lazy/product":       {5360, 0x70479fb14ac338ab},
	"bowtie/Take2/product":      {5360, 0xaeeb973cb92a894b},
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
