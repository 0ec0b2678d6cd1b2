// Package catalog holds the statistics and cost model behind
// cost-based planning. It counts every column of a relation exactly —
// the cardinality, the distinct count and the most frequent values with
// their counts — and exposes a cost model that estimates the size of
// joining any subset of the query variables from those statistics,
// capped by the AGM bound. The decomposition search
// (hypergraph.DecomposeCosted) and the Generic-Join variable-order
// search (ChooseOrder) consume the model, both through the one subset
// DP of hypergraph.CheapestOrder.
// The statistics of a query's relations are collected in one place,
// the facade's Compile, which builds one model from them and keeps
// only the model; ChooseOrder collects its own over the atoms of the
// bag it orders, each time the bag is built.
//
// Not to be confused with internal/stats, which measures experiment
// *runs* (timers, delay recorders, result tables); this package
// summarises the *data*.
package catalog

import (
	"cmp"
	"slices"

	"repro/internal/relation"
)

// heavyK sets the heavy-hitter threshold: a value is heavy in a column
// when it fills at least rows/heavyK of it. A column keeps its
// heavyK−1 most frequent values, which covers every heavy value except
// in the one case where exactly heavyK values split the column evenly.
const heavyK = 64

// HeavyHit is one value of a column with its exact number of rows.
type HeavyHit struct {
	Value int64
	Count int
}

// ColumnStats summarises one column of a relation.
type ColumnStats struct {
	// Distinct is the exact number of distinct values.
	Distinct float64
	// Heavy lists the column's heavyK−1 most frequent values (all of
	// them when it has fewer), by descending count and then ascending
	// value.
	Heavy []HeavyHit
}

// RelationStats summarises one relation: its cardinality plus per-column
// statistics aligned with the relation's attributes.
type RelationStats struct {
	Rows int
	Cols []ColumnStats
}

// Collect counts every value of every column of a relation and returns
// its statistics. One map serves all columns; a count is an int32, so a
// relation holds fewer than 2³¹ rows.
func Collect(r *relation.Relation) *RelationStats {
	st := &RelationStats{Rows: r.Len(), Cols: make([]ColumnStats, r.Arity())}
	counts := make(map[relation.Value]int32)
	for c := range st.Cols {
		clear(counts)
		for _, t := range r.Tuples {
			counts[t[c]]++
		}
		st.Cols[c] = ColumnStats{Distinct: float64(len(counts)), Heavy: mostFrequent(counts)}
	}
	return st
}

// cmpHeavy orders heavy hits by descending count, then ascending value.
func cmpHeavy(a, b HeavyHit) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// mostFrequent returns the heavyK−1 entries of counts that come first
// under cmpHeavy, sorted, in a slice of exactly their length, since a
// CostModel holds them for as long as it lives. It selects
// them in a buffer of twice that size, sorting and cutting it back each
// time it fills, so it never sorts the whole column.
func mostFrequent(counts map[relation.Value]int32) []HeavyHit {
	const keep = heavyK - 1
	buf := make([]HeavyHit, 0, 2*keep)
	// floor is the last entry kept at the latest cut; before the first
	// cut its count of 0 turns nothing away.
	var floor HeavyHit
	for v, n := range counts {
		h := HeavyHit{Value: v, Count: int(n)}
		if cmpHeavy(h, floor) > 0 {
			continue
		}
		buf = append(buf, h)
		if len(buf) == cap(buf) {
			slices.SortFunc(buf, cmpHeavy)
			buf = buf[:keep]
			floor = buf[keep-1]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	slices.SortFunc(buf, cmpHeavy)
	out := make([]HeavyHit, min(len(buf), keep))
	copy(out, buf)
	return out
}

// Catalog maps relation names to statistics collected beforehand.
// NewCostModel reads an atom's entry from it in place of collecting one;
// a nil Catalog holds no entries.
type Catalog map[string]*RelationStats
