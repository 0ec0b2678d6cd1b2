package main

import (
	"math"
	"sort"
)

// summary is what every reported metric carries: the sample count, the
// median and the quartiles of its samples. A metric with one sample
// (an exact count, a heap size) has q1 = median = q3.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted xs by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// point is the summary of a figure that is one number by construction
// (a percentile over n samples, an exact count, a heap size).
func point(v float64, n int) summary { return summary{N: n, Median: v, Q1: v, Q3: v} }

// pct returns the q-quantile of unsorted xs.
func pct(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
