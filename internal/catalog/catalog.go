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

// keepHeavy is the number of most frequent values a column keeps.
const keepHeavy = heavyK - 1

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
// its statistics. A dense column (relation.DenseColumn) is counted in
// an array over [min, max], allocated once at the relation's largest
// span and cleared between columns; a sparse one in a map, also shared
// by the relation's columns. Both give the same ColumnStats. A count is
// an int32, so a relation holds fewer than 2³¹ rows.
func Collect(r *relation.Relation) *RelationStats {
	st := &RelationStats{Rows: r.Len(), Cols: make([]ColumnStats, r.Arity())}
	ranges := make([]struct {
		base relation.Value
		span int
	}, r.Arity())
	maxSpan, sparse := 0, false
	for c := range ranges {
		ranges[c].base, ranges[c].span = r.DenseColumn(c)
		maxSpan, sparse = max(maxSpan, ranges[c].span), sparse || ranges[c].span == 0
	}
	// The count array of a dense column, then collectDense's
	// count-of-counts buckets, in one allocation.
	var cells, coc []int32
	if maxSpan > 0 {
		cells = make([]int32, maxSpan+r.Len()/keepHeavy+2)
		cells, coc = cells[:maxSpan], cells[maxSpan:]
	}
	var counts map[relation.Value]int32
	if sparse {
		counts = make(map[relation.Value]int32)
	}
	sel := heavySelector{buf: make([]HeavyHit, 0, 2*keepHeavy)}
	for c, rg := range ranges {
		if rg.span > 0 {
			st.Cols[c] = collectDense(r.Tuples, c, rg.base, cells[:rg.span], coc, &sel)
		} else {
			st.Cols[c] = collectMap(r.Tuples, c, counts, &sel)
		}
	}
	return st
}

// collectDense counts column c, whose values lie in [base,
// base+len(cells)), in cells. A count-of-counts pass over the cells, into
// coc (len(tuples)/keepHeavy + 2 buckets), finds floor, the count of the
// keepHeavy-th hit under cmpHeavy, so one more pass admits just the kept
// hits — those above floor, and the first hits at floor in ascending
// value — which the selector sorts once.
func collectDense(tuples []relation.Tuple, c int, base relation.Value, cells, coc []int32, sel *heavySelector) ColumnStats {
	clear(cells)
	for _, t := range tuples {
		cells[t[c]-base]++
	}
	// Fewer than keepHeavy hits can have a count of top or more, so
	// counts from top up share its bucket and floor stays below it.
	top := len(tuples)/keepHeavy + 1
	clear(coc)
	distinct := 0
	for _, n := range cells {
		if n > 0 {
			distinct++
			coc[min(int(n), top)]++
		}
	}
	// room is how many hits of count floor are kept; floor 0 (fewer than
	// keepHeavy hits in all) keeps every hit.
	floor, room := int32(0), keepHeavy
	for n := top; n > 0; n-- {
		if int(coc[n]) >= room {
			floor = int32(n)
			break
		}
		room -= int(coc[n])
	}
	sel.reset()
	for i, n := range cells {
		if n == 0 || n < floor {
			continue
		}
		if n == floor {
			if room == 0 {
				continue
			}
			room--
		}
		sel.add(HeavyHit{Value: base + relation.Value(i), Count: int(n)})
	}
	return ColumnStats{Distinct: float64(distinct), Heavy: sel.result()}
}

// collectMap counts column c in counts.
func collectMap(tuples []relation.Tuple, c int, counts map[relation.Value]int32, sel *heavySelector) ColumnStats {
	clear(counts)
	for _, t := range tuples {
		counts[t[c]]++
	}
	sel.reset()
	for v, n := range counts {
		sel.add(HeavyHit{Value: v, Count: int(n)})
	}
	return ColumnStats{Distinct: float64(len(counts)), Heavy: sel.result()}
}

// cmpHeavy orders heavy hits by descending count, then ascending value.
// It is a total order, so the hits a heavySelector keeps do not depend
// on the order they arrive in.
func cmpHeavy(a, b HeavyHit) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// heavySelector keeps the keepHeavy hits that come first under
// cmpHeavy among those added. It selects them in a buffer of twice that
// size, sorting and cutting it back each time it fills, so it never
// sorts a whole column; one buffer serves every column of a relation.
// A dense column adds only the hits it keeps, so its buffer never fills.
type heavySelector struct {
	buf []HeavyHit
	// floor is the last entry kept at the latest cut; before the first
	// cut its count of 0 turns nothing away.
	floor HeavyHit
}

func (s *heavySelector) reset() { s.buf, s.floor = s.buf[:0], HeavyHit{} }

func (s *heavySelector) add(h HeavyHit) {
	if cmpHeavy(h, s.floor) > 0 {
		return
	}
	s.buf = append(s.buf, h)
	if len(s.buf) == cap(s.buf) {
		slices.SortFunc(s.buf, cmpHeavy)
		s.buf = s.buf[:keepHeavy]
		s.floor = s.buf[keepHeavy-1]
	}
}

// result returns the kept hits, sorted, in a slice of exactly their
// length, since a CostModel holds them for as long as it lives; nil
// when none was added.
func (s *heavySelector) result() []HeavyHit {
	if len(s.buf) == 0 {
		return nil
	}
	slices.SortFunc(s.buf, cmpHeavy)
	out := make([]HeavyHit, min(len(s.buf), keepHeavy))
	copy(out, s.buf)
	return out
}

// Catalog maps relation names to statistics collected beforehand.
// NewCostModel reads an atom's entry from it in place of collecting one;
// a nil Catalog holds no entries.
type Catalog map[string]*RelationStats
