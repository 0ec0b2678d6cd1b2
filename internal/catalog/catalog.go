// Package catalog holds the statistics and cost model behind
// cost-based planning. It collects cheap per-relation/per-column
// statistics — cardinalities, distinct counts (exact below a threshold,
// HyperLogLog beyond), min/max ranges, and Misra–Gries heavy-hitter
// summaries — and exposes a cost model that estimates the size of
// joining any subset of the query variables from those statistics,
// capped by the AGM bound. The decomposition search
// (hypergraph.DecomposeCosted) and the Generic-Join variable-order
// search (ChooseOrder) consume the model through small interfaces.
// The statistics of a query's relations are collected in one place,
// the facade's Compile, which builds one model from them and keeps
// only its derived numbers, no sketch; ChooseOrder collects its own
// over the atoms of the bag it orders, each time the bag is built.
//
// Not to be confused with internal/stats, which measures experiment
// *runs* (timers, delay recorders, result tables); this package
// summarises the *data*.
package catalog

import "repro/internal/relation"

// heavyK is the Misra–Gries counter budget per column: values with
// frequency above rows/heavyK are guaranteed to appear in the summary.
const heavyK = 64

// ColumnStats summarises one column of a relation.
type ColumnStats struct {
	// Min/Max are the value range; meaningless when the relation is
	// empty (NonEmpty false).
	Min, Max relation.Value
	NonEmpty bool
	// Distinct estimates the number of distinct values; DistinctExact
	// reports whether it is an exact count rather than an HLL estimate.
	Distinct      float64
	DistinctExact bool
	// Heavy lists the surviving Misra–Gries entries (descending count);
	// each Count lower-bounds the value's true frequency by at most
	// HeavyTotal/heavyK. HeavyTotal is the scanned row count.
	Heavy      []HeavyHit
	HeavyTotal int
}

// RelationStats summarises one relation: its cardinality plus per-column
// statistics aligned with the relation's attributes.
type RelationStats struct {
	Rows int
	Cols []ColumnStats
}

// Collect scans a relation once per column and returns its statistics.
func Collect(r *relation.Relation) *RelationStats {
	st := &RelationStats{Rows: r.Len(), Cols: make([]ColumnStats, r.Arity())}
	sums := r.ColumnSummaries()
	for c := range st.Cols {
		dc := NewDistinctCounter()
		mg := NewMisraGries(heavyK)
		for _, t := range r.Tuples {
			dc.Add(int64(t[c]))
			mg.Add(int64(t[c]))
		}
		st.Cols[c] = ColumnStats{
			Min:           sums[c].Min,
			Max:           sums[c].Max,
			NonEmpty:      sums[c].NonEmpty,
			Distinct:      dc.Estimate(),
			DistinctExact: dc.Exact(),
			Heavy:         mg.Entries(),
			HeavyTotal:    mg.Total(),
		}
	}
	return st
}

// Catalog maps relation names to statistics collected beforehand.
// NewCostModel reads an atom's entry from it in place of collecting one;
// a nil Catalog holds no entries.
type Catalog map[string]*RelationStats
