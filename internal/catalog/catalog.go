// Package catalog is the statistics catalog and cost model behind
// cost-based planning. It collects cheap per-relation/per-column
// statistics — cardinalities, distinct counts (exact below a threshold,
// HyperLogLog beyond), min/max ranges, and Misra–Gries heavy-hitter
// summaries — and exposes a cost model that estimates the size of
// joining any subset of the query variables from those statistics,
// capped by the AGM bound. The decomposition search
// (hypergraph.DecomposeCosted) and the Generic-Join variable-order
// search (ChooseOrder) consume the model through small interfaces, and
// the facade's Compile wires it in by default via WithStatistics.
//
// Not to be confused with internal/stats, which measures experiment
// *runs* (timers, delay recorders, result tables); this package
// summarises the *data*.
package catalog

import (
	"sync"

	"repro/internal/relation"
)

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

	// dc/mg are the live sketches the derived fields above were read
	// from. Collect retains them so statistics for append deltas merge
	// (HLL register max, Misra–Gries counter union) instead of forcing a
	// rescan; they are nil for hand-constructed ColumnStats, in which
	// case MergeAppend reports that a recollection is required.
	dc *DistinctCounter
	mg *MisraGries
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
			dc:            dc,
			mg:            mg,
		}
	}
	return st
}

// Mergeable reports whether s retains live sketches in every column, so
// MergeAppend with it can succeed. Statistics from Collect are
// mergeable; hand-constructed ones are not.
func (s *RelationStats) Mergeable() bool {
	for i := range s.Cols {
		if s.Cols[i].dc == nil || s.Cols[i].mg == nil {
			return false
		}
	}
	return true
}

// MergeAppend returns new statistics describing s's relation after
// appending the rows summarised by delta: row counts add, min/max
// ranges widen, distinct counters and heavy-hitter summaries merge
// sketch-wise (HLL register max / Misra–Gries counter union). Neither
// input is mutated. It reports false — and the caller must Collect from
// scratch — when the arities differ or either side lacks live sketches
// (hand-constructed stats). Deletions cannot be merged at all: sketches
// are insert-only, so delta statistics apply to appends only.
func (s *RelationStats) MergeAppend(delta *RelationStats) (*RelationStats, bool) {
	if len(s.Cols) != len(delta.Cols) || !s.Mergeable() || !delta.Mergeable() {
		return nil, false
	}
	out := &RelationStats{Rows: s.Rows + delta.Rows, Cols: make([]ColumnStats, len(s.Cols))}
	for c := range s.Cols {
		a, b := &s.Cols[c], &delta.Cols[c]
		dc := a.dc.Clone()
		dc.Merge(b.dc)
		mg := a.mg.Clone()
		mg.Merge(b.mg)
		col := ColumnStats{
			Min:           a.Min,
			Max:           a.Max,
			NonEmpty:      a.NonEmpty || b.NonEmpty,
			Distinct:      dc.Estimate(),
			DistinctExact: dc.Exact(),
			Heavy:         mg.Entries(),
			HeavyTotal:    mg.Total(),
			dc:            dc,
			mg:            mg,
		}
		if !a.NonEmpty {
			col.Min, col.Max = b.Min, b.Max
		} else if b.NonEmpty {
			if b.Min < col.Min {
				col.Min = b.Min
			}
			if b.Max > col.Max {
				col.Max = b.Max
			}
		}
		out.Cols[c] = col
	}
	return out, true
}

// Catalog maps relation (dataset) names to versioned statistics. Putting
// a name at any version replaces the previous entry, so re-registering a
// dataset at a bumped version invalidates its stale statistics
// atomically. Safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]catEntry
}

type catEntry struct {
	version int
	st      *RelationStats
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{entries: make(map[string]catEntry)}
}

// Put stores (replacing any prior version) the statistics for name.
func (c *Catalog) Put(name string, version int, st *RelationStats) {
	c.mu.Lock()
	c.entries[name] = catEntry{version: version, st: st}
	c.mu.Unlock()
}

// Get returns the current statistics and version for name.
func (c *Catalog) Get(name string) (*RelationStats, int, bool) {
	c.mu.RLock()
	e, ok := c.entries[name]
	c.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	return e.st, e.version, true
}

// Len returns the number of catalogued relations.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
