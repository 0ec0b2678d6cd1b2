// Package ranking defines the five ranking functions supported by the
// ranked-enumeration algorithms. Following the framework the tutorial
// presents in Part 3 (and its companion paper formalises), a ranking
// function is an aggregate over per-tuple weights drawn from a selective
// dioid: a commutative monoid (Combine, Identity) equipped with a total
// order (Less) under which Combine is monotone:
//
//	Less(a, b) ⇒ !Less(Combine(b, c), Combine(a, c))
//
// Monotonicity is what lets dynamic programming push ranking below the
// join: the best extension of a partial solution is independent of the
// prefix it extends. SumCost (min-sum / tropical semiring), SumBenefit
// (max-sum), MaxCost (min-max / bottleneck), MinBenefit (max-min) and
// ProductCost all satisfy the laws on the weights CheckDomain accepts;
// package tests check them with testing/quick.
package ranking

import (
	"fmt"
	"math"
	"strings"
)

// Aggregate is one of the five ranking functions: a closed, comparable
// value with no state, usable as a map key. The zero value is SumCost.
type Aggregate struct{ op uint8 }

// The values of Aggregate.op, one per ranking function.
const (
	sum = iota
	sumDesc
	maxOp
	minDesc
	product
)

var (
	// SumCost ranks results by ascending sum of weights (the tropical
	// min-plus dioid). This is the ranking function of the tutorial's
	// running example: the k *lightest* 4-cycles.
	SumCost = Aggregate{sum}
	// SumBenefit ranks results by descending sum of weights (max-plus),
	// the convention of classic top-k middleware (higher grades are
	// better).
	SumBenefit = Aggregate{sumDesc}
	// MaxCost ranks results by ascending maximum weight (bottleneck).
	MaxCost = Aggregate{maxOp}
	// MinBenefit ranks results by descending minimum weight: the best
	// result maximises its weakest component.
	MinBenefit = Aggregate{minDesc}
	// ProductCost ranks by ascending product of strictly positive
	// weights (e.g. joint probabilities).
	ProductCost = Aggregate{product}
)

// All lists every ranking function.
var All = [...]Aggregate{SumCost, SumBenefit, MaxCost, MinBenefit, ProductCost}

// ops holds, per Aggregate.op, the Name and the Identity.
var ops = [...]struct {
	name     string
	identity float64
}{
	sum: {"sum", 0}, sumDesc: {"sum-desc", 0}, product: {"product", 1},
	maxOp: {"max", math.Inf(-1)}, minDesc: {"min-desc", math.Inf(1)},
}

// Parse returns the ranking function whose Name is name.
func Parse(name string) (Aggregate, error) {
	names := make([]string, len(All))
	for i, a := range All {
		if names[i] = a.Name(); names[i] == name {
			return a, nil
		}
	}
	return Aggregate{}, fmt.Errorf("unknown ranking %q (%s)", name, strings.Join(names, ", "))
}

// Name identifies the aggregate in reports and in Parse.
func (a Aggregate) Name() string { return ops[a.op].name }

// Identity is the weight of the empty combination.
func (a Aggregate) Identity() float64 { return ops[a.op].identity }

// Combine merges two weights. It is associative and commutative with
// Identity as the neutral element. On equal arguments max and min
// return y, so the sign of a zero is that of the later one.
func (a Aggregate) Combine(x, y float64) float64 {
	switch a.op {
	case sum, sumDesc:
		return x + y
	case product:
		return x * y
	case maxOp:
		if x > y {
			return x
		}
	default:
		if x < y {
			return x
		}
	}
	return y
}

// Less reports whether x is strictly better (ranked earlier) than y:
// descending for SumBenefit and MinBenefit, ascending otherwise.
func (a Aggregate) Less(x, y float64) bool {
	if a.Desc() {
		return x > y
	}
	return x < y
}

// Desc reports whether the aggregate ranks larger weights first
// (SumBenefit and MinBenefit): the direction bit the heaps of package
// heap order by.
func (a Aggregate) Desc() bool { return a.op == sumDesc || a.op == minDesc }

// DomainError reports a tuple weight outside the domain on which an
// aggregate is monotone. Enumerating over it would not fail but return
// results in an order, or under a sum with NaN weights, that differs
// between variants. Under a sum, OtherRel and OtherRow name the row of
// another atom holding the opposite infinity.
type DomainError struct {
	Agg           Aggregate
	Rel, OtherRel string
	Row, OtherRow int
	Weight        float64
}

func (e *DomainError) Error() string {
	if e.Agg == ProductCost {
		return fmt.Sprintf("ranking %s needs positive weights: relation %s row %d has weight %g", e.Agg.Name(), e.Rel, e.Row, e.Weight)
	}
	return fmt.Sprintf("ranking %s cannot add +Inf and -Inf: relation %s row %d has weight %g and relation %s row %d has weight %g",
		e.Agg.Name(), e.Rel, e.Row, e.Weight, e.OtherRel, e.OtherRow, -e.Weight)
}

// CheckDomain returns a *DomainError for the first weight, over the
// atoms' columns in order, on which a is not monotone, or nil. rels[i]
// names atom i, weights[i] is its column. ProductCost needs weights > 0.
// SumCost and SumBenefit refuse +Inf in one atom beside −Inf in another
// (their sum is NaN); one atom may hold both, as a result takes one row
// of each atom. MaxCost and MinBenefit take any weight.
func (a Aggregate) CheckDomain(rels []string, weights [][]float64) error {
	if a == MaxCost || a == MinBenefit {
		return nil
	}
	// atom[s] and row[s] locate the first +Inf (s = 0) and −Inf (s = 1)
	// seen: a row clashes with an earlier atom exactly when the first
	// row of the opposite sign lies in one.
	atom, row := [2]int{-1, -1}, [2]int{}
	for i, ws := range weights {
		for r, w := range ws {
			switch {
			case a == ProductCost && !(w > 0):
				return &DomainError{Agg: a, Rel: rels[i], Row: r, Weight: w}
			case (a == SumCost || a == SumBenefit) && math.IsInf(w, 0):
				s := int(math.Float64bits(w) >> 63) // the sign bit
				if o := atom[1-s]; o >= 0 && o < i {
					return &DomainError{Agg: a, Rel: rels[i], Row: r, Weight: w, OtherRel: rels[o], OtherRow: row[1-s]}
				}
				if atom[s] < 0 {
					atom[s], row[s] = i, r
				}
			}
		}
	}
	return nil
}
