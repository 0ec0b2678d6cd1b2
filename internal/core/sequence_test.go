package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/ranking"
	"repro/internal/workload"
)

// tieWeights draws every tuple weight from {1, 2, 3}, so most result
// weights are tied and the order among ties is what a sequence pins.
func tieWeights() workload.WeightFn {
	return func(r *workload.Rand) float64 { return float64(1 + r.Intn(3)) }
}

// sequenceInstances are the instances TestEnumerationSequenceUnchanged
// enumerates: a deep path, a star and a random tree, all tie-heavy.
func sequenceInstances() []struct {
	name string
	inst *workload.Instance
} {
	return []struct {
		name string
		inst *workload.Instance
	}{
		{"Path", workload.Path(4, 40, 10, tieWeights(), 11)},
		{"Star", workload.Star(3, 40, 8, tieWeights(), 12)},
		{"RandomTree", workload.RandomTree(5, 30, 8, tieWeights(), 13)},
	}
}

// sequenceHash is the FNV-64a of a result sequence: every tuple value
// and the bits of every weight, in enumeration order.
func sequenceHash(rs []Result) uint64 {
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

// sequenceGoldens are the lengths and hashes of every sequence
// TestEnumerationSequenceUnchanged enumerates. They are fixed values: a
// change to the queue, the assignment arena or the incremental sorts
// must leave every sequence, tie order included, as it is.
var sequenceGoldens = map[string]struct {
	n    int
	hash uint64
}{
	"Path/Eager/sum":            {2993, 0xd65f401fa47e6ca7},
	"Path/Lazy/sum":             {2993, 0x9ebcdfe06a0474b7},
	"Path/Quick/sum":            {2993, 0xa7631fbd604046a7},
	"Path/All/sum":              {2993, 0x91ea46a3791a8de7},
	"Path/Take2/sum":            {2993, 0xd329a8398c9aebd7},
	"Path/Rec/sum":              {2993, 0x621e753441853c37},
	"Path/Eager/sum-desc":       {2993, 0x560ea7d46de1bd97},
	"Path/Lazy/sum-desc":        {2993, 0xc70df56091c58877},
	"Path/Quick/sum-desc":       {2993, 0x3a077de87ee812a7},
	"Path/All/sum-desc":         {2993, 0x7eef540b3adf0027},
	"Path/Take2/sum-desc":       {2993, 0xf9e1bf5216e36db7},
	"Path/Rec/sum-desc":         {2993, 0x495b41c84a5082c7},
	"Path/Eager/max":            {2993, 0xff72ffd627c63bdf},
	"Path/Lazy/max":             {2993, 0x722f0811eaf3637f},
	"Path/Quick/max":            {2993, 0xa7a88abb814d3487},
	"Path/All/max":              {2993, 0x81977e0f32739a73},
	"Path/Take2/max":            {2993, 0x2fcd29eeed3a41db},
	"Path/Rec/max":              {2993, 0x95bcf989bdd937bb},
	"Path/Eager/min-desc":       {2993, 0xb19dd1b1562df892},
	"Path/Lazy/min-desc":        {2993, 0x7238b327cda33e2a},
	"Path/Quick/min-desc":       {2993, 0x58ebec05454f8fae},
	"Path/All/min-desc":         {2993, 0xb0b18de762fbfdf6},
	"Path/Take2/min-desc":       {2993, 0x4666f85bc13515a},
	"Path/Rec/min-desc":         {2993, 0x10696b6eede8c386},
	"Path/Eager/product":        {2993, 0x3ffc80ee5791f42},
	"Path/Lazy/product":         {2993, 0xb998737e0008ab42},
	"Path/Quick/product":        {2993, 0x7e30cdd26137821a},
	"Path/All/product":          {2993, 0x6a257a1f810d778e},
	"Path/Take2/product":        {2993, 0x9521d79209b3a7b6},
	"Path/Rec/product":          {2993, 0x7a51c9eb91ac4f26},
	"Star/Eager/sum":            {923, 0xa2b10436b43f65c3},
	"Star/Lazy/sum":             {923, 0x5ef1a9c09191fa73},
	"Star/Quick/sum":            {923, 0x7305a77c6f5aa73},
	"Star/All/sum":              {923, 0x8104cd939996c733},
	"Star/Take2/sum":            {923, 0x838981eddbf7b213},
	"Star/Rec/sum":              {923, 0x21ee1f3ed9a158c3},
	"Star/Eager/sum-desc":       {923, 0x37fec4226a4f9353},
	"Star/Lazy/sum-desc":        {923, 0xf0559c4032efddd3},
	"Star/Quick/sum-desc":       {923, 0xd957d5c8f9051c43},
	"Star/All/sum-desc":         {923, 0xfe63ce50bb1fc93},
	"Star/Take2/sum-desc":       {923, 0x886077bbe434d453},
	"Star/Rec/sum-desc":         {923, 0x8685764ebb027803},
	"Star/Eager/max":            {923, 0x5b53f5d1efd6b5fd},
	"Star/Lazy/max":             {923, 0xd53589bad86d7899},
	"Star/Quick/max":            {923, 0xcdd26a7cb3efe565},
	"Star/All/max":              {923, 0x1ca7b9b95bcdbff1},
	"Star/Take2/max":            {923, 0x667e25df2a6b3171},
	"Star/Rec/max":              {923, 0x269d4280fb9ee625},
	"Star/Eager/min-desc":       {923, 0xa582429c9043d645},
	"Star/Lazy/min-desc":        {923, 0x1f2078d0082b3cf5},
	"Star/Quick/min-desc":       {923, 0x6f5905518e30f085},
	"Star/All/min-desc":         {923, 0x30ec908b3f25089d},
	"Star/Take2/min-desc":       {923, 0x7993a7a01130db49},
	"Star/Rec/min-desc":         {923, 0x1fb96aec37bdee85},
	"Star/Eager/product":        {923, 0xb8d476c04ee6f9f6},
	"Star/Lazy/product":         {923, 0xf353daa79c332d42},
	"Star/Quick/product":        {923, 0xc62214f81c6fa9ce},
	"Star/All/product":          {923, 0x112358cecc058aa},
	"Star/Take2/product":        {923, 0x9906c63c9bbf4da},
	"Star/Rec/product":          {923, 0xae057aa238126aee},
	"RandomTree/Eager/sum":      {5105, 0x33d178fa3a42b032},
	"RandomTree/Lazy/sum":       {5105, 0xacd0d3bda7895b82},
	"RandomTree/Quick/sum":      {5105, 0x8ac3dd6308ac8b52},
	"RandomTree/All/sum":        {5105, 0xe64d0c7ee0a6a5b2},
	"RandomTree/Take2/sum":      {5105, 0x115d4cefe8fb7942},
	"RandomTree/Rec/sum":        {5105, 0xac137bd859939d52},
	"RandomTree/Eager/sum-desc": {5105, 0x1d7ff3ba37d8f6b2},
	"RandomTree/Lazy/sum-desc":  {5105, 0xe4d57a9bf9823142},
	"RandomTree/Quick/sum-desc": {5105, 0x9d013b68bbd58562},
	"RandomTree/All/sum-desc":   {5105, 0x6e18c09286af572},
	"RandomTree/Take2/sum-desc": {5105, 0x944e4105f93b7bf2},
	"RandomTree/Rec/sum-desc":   {5105, 0x363c5a2c7edbc912},
	"RandomTree/Eager/max":      {5105, 0x36214e5a5fe60efc},
	"RandomTree/Lazy/max":       {5105, 0xc9cddb688949a158},
	"RandomTree/Quick/max":      {5105, 0xc118c308ddaf8f6c},
	"RandomTree/All/max":        {5105, 0x6a8033316d86058},
	"RandomTree/Take2/max":      {5105, 0xb5c43f0343244f7c},
	"RandomTree/Rec/max":        {5105, 0x34841e68dadbe5a8},
	"RandomTree/Eager/min-desc": {5105, 0x45405ff232a18b95},
	"RandomTree/Lazy/min-desc":  {5105, 0x53e6058519b3d699},
	"RandomTree/Quick/min-desc": {5105, 0x7294546963915685},
	"RandomTree/All/min-desc":   {5105, 0x86c06ef1379cafd1},
	"RandomTree/Take2/min-desc": {5105, 0x90e2e91763039f29},
	"RandomTree/Rec/min-desc":   {5105, 0x358e7fe4a2dde7a9},
	"RandomTree/Eager/product":  {5105, 0xf3b90cd9eaf5cf8c},
	"RandomTree/Lazy/product":   {5105, 0x912e8b95216e9ae8},
	"RandomTree/Quick/product":  {5105, 0x3be3e67999a883cc},
	"RandomTree/All/product":    {5105, 0x7509fc173d1d5958},
	"RandomTree/Take2/product":  {5105, 0xadcabe50ef43d29c},
	"RandomTree/Rec/product":    {5105, 0x41d30d141cadbe98},
}

// TestEnumerationSequenceUnchanged pins the exact result sequence —
// tuples, weight bits and the order among ties — of every PART variant
// and ANYK-REC under all five rankings on a path, a star and a random
// tree. At least one sequence must spread its assignments over more
// than three arena chunks, so children whose parent sits in an earlier
// chunk, of a different size, are covered; likewise one REC sequence
// its rank vectors.
func TestEnumerationSequenceUnchanged(t *testing.T) {
	maxChunks, maxRankChunks := 0, 0
	for _, c := range sequenceInstances() {
		for _, agg := range ranking.All {
			tdp := buildTDP(t, c.inst, agg)
			for _, v := range []Variant{Eager, Lazy, Quick, All, Take2, Rec} {
				key := fmt.Sprintf("%s/%s/%s", c.name, v, agg.Name())
				it, err := New(context.Background(), tdp, v)
				if err != nil {
					t.Fatal(err)
				}
				rs := Collect(it, 0)
				switch it := it.(type) {
				case *partIter:
					maxChunks = max(maxChunks, len(it.arena.chunks))
				case *recIter:
					for _, a := range it.ranks {
						maxRankChunks = max(maxRankChunks, len(a.chunks))
					}
				}
				want, ok := sequenceGoldens[key]
				if !ok {
					t.Fatalf("%s: no golden", key)
				}
				if got := sequenceHash(rs); len(rs) != want.n || got != want.hash {
					t.Errorf("%s: %d results with hash %#x, want %d with %#x", key, len(rs), got, want.n, want.hash)
				}
			}
		}
	}
	if maxChunks <= 3 {
		t.Errorf("the longest sequence used %d arena chunks, want more than 3", maxChunks)
	}
	if maxRankChunks <= 3 {
		t.Errorf("the longest REC sequence used %d chunks of one rank arena, want more than 3", maxRankChunks)
	}
}
