// Package ranking defines the ranking functions supported by the
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
// prefix it extends. SumCost (min-sum / tropical semiring), MaxCost
// (min-max / bottleneck), MinCost (max-min), and ProductCost all satisfy
// the laws; package tests check them with testing/quick.
package ranking

import (
	"fmt"
	"math"
)

// Aggregate combines per-tuple weights into a result weight and orders
// result weights. Implementations must be monotone monoids as described
// in the package comment.
type Aggregate interface {
	// Identity is the weight of the empty combination.
	Identity() float64
	// Combine merges two weights. It must be associative and commutative
	// with Identity as the neutral element.
	Combine(a, b float64) float64
	// Less reports whether a is strictly better (ranked earlier) than b.
	Less(a, b float64) bool
	// Name identifies the aggregate in reports.
	Name() string
}

// SumCost ranks results by ascending sum of weights (the tropical
// min-plus dioid). This is the ranking function of the tutorial's running
// example: the k *lightest* 4-cycles.
type SumCost struct{}

func (SumCost) Identity() float64            { return 0 }
func (SumCost) Combine(a, b float64) float64 { return a + b }
func (SumCost) Less(a, b float64) bool       { return a < b }
func (SumCost) Name() string                 { return "sum" }

// SumBenefit ranks results by descending sum of weights (max-plus), the
// convention of classic top-k middleware (higher grades are better).
type SumBenefit struct{}

func (SumBenefit) Identity() float64            { return 0 }
func (SumBenefit) Combine(a, b float64) float64 { return a + b }
func (SumBenefit) Less(a, b float64) bool       { return a > b }
func (SumBenefit) Name() string                 { return "sum-desc" }

// MaxCost ranks results by ascending maximum weight (bottleneck order).
type MaxCost struct{}

func (MaxCost) Identity() float64 { return negInf }
func (MaxCost) Combine(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
func (MaxCost) Less(a, b float64) bool { return a < b }
func (MaxCost) Name() string           { return "max" }

// MinBenefit ranks results by descending minimum weight: the best result
// maximises its weakest component.
type MinBenefit struct{}

func (MinBenefit) Identity() float64 { return posInf }
func (MinBenefit) Combine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
func (MinBenefit) Less(a, b float64) bool { return a > b }
func (MinBenefit) Name() string           { return "min-desc" }

// ProductCost ranks by ascending product of strictly positive weights
// (e.g. joint probabilities). Weights must be > 0 for monotonicity;
// CheckDomain finds the first one that is not.
type ProductCost struct{}

func (ProductCost) Identity() float64            { return 1 }
func (ProductCost) Combine(a, b float64) float64 { return a * b }
func (ProductCost) Less(a, b float64) bool       { return a < b }
func (ProductCost) Name() string                 { return "product" }

// DomainError reports a tuple weight outside the domain on which an
// aggregate is monotone. Enumerating over such a weight would not fail
// but return results in an order that differs between variants.
type DomainError struct {
	Agg    string // the aggregate's Name
	Rel    string
	Row    int
	Weight float64
}

func (e *DomainError) Error() string {
	return fmt.Sprintf("ranking %s needs positive weights: relation %s row %d has weight %g", e.Agg, e.Rel, e.Row, e.Weight)
}

// CheckDomain returns a *DomainError for the first of rel's weights on
// which agg is not monotone, or nil: ProductCost needs weights > 0, the
// other aggregates take any weight.
func CheckDomain(agg Aggregate, rel string, weights []float64) error {
	if _, ok := agg.(ProductCost); !ok {
		return nil
	}
	for row, w := range weights {
		if !(w > 0) {
			return &DomainError{Agg: agg.Name(), Rel: rel, Row: row, Weight: w}
		}
	}
	return nil
}

var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)
