// Package join implements the classic "two relations at a time" join
// operators that database optimizers favor: hash join, semi-join, and
// left-deep plans built from them. Plans are instrumented to count
// intermediate-result tuples, because the whole point of §3 of the
// tutorial is that on cyclic queries these plans materialise
// intermediate results asymptotically larger than the final output.
package join

import (
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Stats records the work a plan execution performed.
type Stats struct {
	// IntermediateTuples is the total number of tuples materialised in
	// intermediate results (the final output is not counted).
	IntermediateTuples int
	// MaxIntermediate is the largest single intermediate result.
	MaxIntermediate int
	// OutputTuples is the size of the final result.
	OutputTuples int
	// ProbeSteps counts hash probes plus emitted matches (RAM-model work).
	ProbeSteps int
}

// outputSchema returns the natural-join schema: l's attributes followed
// by r's attributes that are not shared, plus the column mapping for r.
func outputSchema(l, r *relation.Relation) (attrs []string, rKeep []int) {
	attrs = append(attrs, l.Attrs...)
	for i, a := range r.Attrs {
		if !l.HasAttr(a) {
			attrs = append(attrs, a)
			rKeep = append(rKeep, i)
		}
	}
	return attrs, rKeep
}

// HashJoin computes the natural join of l and r on all shared attributes,
// combining tuple weights with agg. With no shared attributes it degrades
// to the cartesian product. Stats (may be nil) accumulates probe work.
func HashJoin(l, r *relation.Relation, agg ranking.Aggregate, stats *Stats) *relation.Relation {
	shared := l.SharedAttrs(r)
	attrs, rKeep := outputSchema(l, r)
	name := l.Name + "⋈" + r.Name
	var out relation.Builder
	row := make(relation.Tuple, len(attrs)) // the Builder copies it

	if len(shared) == 0 {
		for i, lt := range l.Tuples {
			for j, rt := range r.Tuples {
				emit(&out, row, lt, rt, rKeep, agg.Combine(l.Weights[i], r.Weights[j]))
			}
		}
		if stats != nil {
			stats.ProbeSteps += l.Len() * r.Len()
		}
		return relation.Concat(name, attrs, &out)
	}

	rIdx := relation.MustIndex(r, shared...)
	lCols, err := l.AttrIndexes(shared)
	if err != nil {
		panic(err) // shared attrs come from l's schema; cannot fail
	}
	for i, lt := range l.Tuples {
		rows := rIdx.Rows(rIdx.FindBy(lt, lCols))
		if stats != nil {
			stats.ProbeSteps += 1 + len(rows)
		}
		for _, j := range rows {
			emit(&out, row, lt, r.Tuples[j], rKeep, agg.Combine(l.Weights[i], r.Weights[j]))
		}
	}
	return relation.Concat(name, attrs, &out)
}

// emit adds the output row of lt and rt to out, assembled in row.
func emit(out *relation.Builder, row, lt, rt relation.Tuple, rKeep []int, w float64) {
	n := copy(row, lt)
	for k, c := range rKeep {
		row[n+k] = rt[c]
	}
	out.Add(row, w)
}

// SemiJoin returns the tuples of l that join with at least one tuple of
// r on the shared attributes (weights unchanged). When every row of l
// joins — with no shared attributes, whenever r is non-empty: r's index
// on zero attributes has the empty key iff r has a row — the result is
// l itself, not a copy. Otherwise it is a new relation under l's name,
// sized exactly (Relation.Subset).
func SemiJoin(l, r *relation.Relation) *relation.Relation {
	shared := l.SharedAttrs(r)
	rIdx := relation.MustIndex(r, shared...)
	lCols, _ := l.AttrIndexes(shared)
	rows := make([]int32, 0, l.Len())
	for i, t := range l.Tuples {
		if rIdx.FindBy(t, lCols) >= 0 {
			rows = append(rows, int32(i))
		}
	}
	if len(rows) == l.Len() {
		return l
	}
	return l.Subset(rows)
}

// Plan is a left-deep binary join plan: ((R1 ⋈ R2) ⋈ R3) ⋈ ...
type Plan struct {
	Rels []*relation.Relation
	Agg  ranking.Aggregate
}

// NewPlan builds a left-deep plan joining rels in order with agg.
func NewPlan(agg ranking.Aggregate, rels ...*relation.Relation) *Plan {
	return &Plan{Rels: rels, Agg: agg}
}

// Execute runs the plan with hash joins and returns the result along with
// intermediate-result statistics.
func (p *Plan) Execute() (*relation.Relation, *Stats) {
	stats := &Stats{}
	if len(p.Rels) == 0 {
		return relation.New("empty"), stats
	}
	acc := p.Rels[0]
	for i := 1; i < len(p.Rels); i++ {
		acc = HashJoin(acc, p.Rels[i], p.Agg, stats)
		if i < len(p.Rels)-1 {
			stats.IntermediateTuples += acc.Len()
			if acc.Len() > stats.MaxIntermediate {
				stats.MaxIntermediate = acc.Len()
			}
		}
	}
	stats.OutputTuples = acc.Len()
	return acc, stats
}
