// Package topk implements the classic top-k middleware algorithms of
// Part 1 of the tutorial — Fagin's Algorithm (FA), the Threshold
// Algorithm (TA) and its no-random-access variant (NRA) — plus rank
// join (HRJN) operator trees for top-k join queries.
//
// Following the literature, this package uses the *benefit* convention:
// grades are non-negative, higher is better, and the aggregate is
// monotone increasing in every argument. Costs are counted in the
// middleware access model (sorted accesses + random accesses), the model
// in which TA is instance-optimal — and, for the RAM-model comparison
// the tutorial calls for, the operators also report the number of
// intermediate tuples they buffered.
package topk

import (
	"fmt"
	"sort"
)

// List is one ranked input: object IDs with grades, sorted by
// descending grade. Grades must be non-increasing.
type List struct {
	IDs    []int
	Grades []float64
}

// NewList validates and wraps a ranked list.
func NewList(ids []int, grades []float64) (*List, error) {
	if len(ids) != len(grades) {
		return nil, fmt.Errorf("topk: %d ids but %d grades", len(ids), len(grades))
	}
	for i := 1; i < len(grades); i++ {
		if grades[i] > grades[i-1] {
			return nil, fmt.Errorf("topk: list not sorted descending at rank %d", i)
		}
	}
	return &List{IDs: ids, Grades: grades}, nil
}

// ScoreAgg combines per-list grades into an object score. It must be
// monotone: increasing any grade must not decrease the score.
type ScoreAgg interface {
	Score(grades []float64) float64
}

// SumAgg scores objects by the sum of grades.
type SumAgg struct{}

// Score implements ScoreAgg.
func (SumAgg) Score(grades []float64) float64 {
	s := 0.0
	for _, g := range grades {
		s += g
	}
	return s
}

// Candidate is a scored object.
type Candidate struct {
	ID    int
	Score float64
}

// AccessStats counts middleware accesses (the cost model of §2) plus the
// buffered-object count (RAM-model footprint).
type AccessStats struct {
	Sorted   int // sorted accesses
	Random   int // random accesses
	Buffered int // max simultaneously buffered objects
}

// randomAccess looks up an object's grade in a list (grade 0 if absent,
// which keeps aggregates well-defined on partial lists).
type gradeIndex map[int]float64

func indexList(l *List) gradeIndex {
	m := make(gradeIndex, len(l.IDs))
	for i, id := range l.IDs {
		m[id] = l.Grades[i]
	}
	return m
}

// TA runs the Threshold Algorithm: round-robin sorted access, immediate
// random access to every other list for each new object, stopping as
// soon as k buffered objects score at least the threshold
// agg(last grades seen under sorted access). It returns the top-k
// candidates in descending score order.
func TA(lists []*List, k int, agg ScoreAgg) ([]Candidate, *AccessStats) {
	m := len(lists)
	stats := &AccessStats{}
	if m == 0 || k <= 0 {
		return nil, stats
	}
	idx := make([]gradeIndex, m)
	for i, l := range lists {
		idx[i] = indexList(l)
	}
	seen := make(map[int]bool)
	var top []Candidate // kept sorted descending, ≤ k entries
	last := make([]float64, m)
	for i := range last {
		if len(lists[i].Grades) > 0 {
			last[i] = lists[i].Grades[0]
		}
	}
	grades := make([]float64, m)
	depth := 0
	maxDepth := 0
	for _, l := range lists {
		if len(l.IDs) > maxDepth {
			maxDepth = len(l.IDs)
		}
	}
	for depth < maxDepth {
		for li, l := range lists {
			if depth >= len(l.IDs) {
				continue
			}
			stats.Sorted++
			id := l.IDs[depth]
			last[li] = l.Grades[depth]
			if seen[id] {
				continue
			}
			seen[id] = true
			for gi := range lists {
				if gi == li {
					grades[gi] = l.Grades[depth]
					continue
				}
				stats.Random++
				grades[gi] = idx[gi][id]
			}
			insertTop(&top, Candidate{ID: id, Score: agg.Score(grades)}, k)
		}
		if len(seen) > stats.Buffered {
			stats.Buffered = len(seen)
		}
		depth++
		threshold := agg.Score(last)
		if len(top) == k && top[k-1].Score >= threshold {
			break
		}
	}
	return top, stats
}

// FA runs Fagin's Algorithm: sorted access in parallel until at least k
// objects have been seen in *every* list, then random access to complete
// all seen objects. FA lacks TA's instance optimality: its stopping rule
// ignores grade values.
func FA(lists []*List, k int, agg ScoreAgg) ([]Candidate, *AccessStats) {
	m := len(lists)
	stats := &AccessStats{}
	if m == 0 || k <= 0 {
		return nil, stats
	}
	idx := make([]gradeIndex, m)
	for i, l := range lists {
		idx[i] = indexList(l)
	}
	seenIn := make(map[int]int) // object -> number of lists seen in
	seenAll := 0
	depth := 0
	maxDepth := 0
	for _, l := range lists {
		if len(l.IDs) > maxDepth {
			maxDepth = len(l.IDs)
		}
	}
	for depth < maxDepth && seenAll < k {
		for _, l := range lists {
			if depth >= len(l.IDs) {
				continue
			}
			stats.Sorted++
			id := l.IDs[depth]
			seenIn[id]++
			if seenIn[id] == m {
				seenAll++
			}
		}
		depth++
	}
	stats.Buffered = len(seenIn)
	// Random-access phase: complete every seen object.
	grades := make([]float64, m)
	var all []Candidate
	for id := range seenIn {
		for gi := range lists {
			stats.Random++
			grades[gi] = idx[gi][id]
		}
		all = append(all, Candidate{ID: id, Score: agg.Score(grades)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, stats
}

// NRA runs the No-Random-Access algorithm: objects accumulate known
// grades through sorted access only; unknown grades are bounded by each
// list's last-seen grade. It stops when the k-th best lower bound is at
// least every other object's upper bound (including unseen objects). It
// returns the top-k by lower bound (which at termination equals the true
// score order for the winners). Sum aggregation only: upper/lower bounds
// require substituting per-list bounds, which is shaped here for sums.
func NRA(lists []*List, k int) ([]Candidate, *AccessStats) {
	m := len(lists)
	stats := &AccessStats{}
	if m == 0 || k <= 0 {
		return nil, stats
	}
	type objState struct {
		known  []float64
		seenIn []bool
		lower  float64
		nKnown int
	}
	objs := make(map[int]*objState)
	last := make([]float64, m)
	for i, l := range lists {
		if len(l.Grades) > 0 {
			last[i] = l.Grades[0]
		}
	}
	maxDepth := 0
	for _, l := range lists {
		if len(l.IDs) > maxDepth {
			maxDepth = len(l.IDs)
		}
	}
	upper := func(o *objState) float64 {
		u := o.lower
		for i := 0; i < m; i++ {
			if !o.seenIn[i] {
				u += last[i]
			}
		}
		return u
	}
	for depth := 0; depth < maxDepth; depth++ {
		for li, l := range lists {
			if depth >= len(l.IDs) {
				last[li] = 0
				continue
			}
			stats.Sorted++
			id := l.IDs[depth]
			last[li] = l.Grades[depth]
			o := objs[id]
			if o == nil {
				o = &objState{known: make([]float64, m), seenIn: make([]bool, m)}
				objs[id] = o
			}
			if !o.seenIn[li] {
				o.seenIn[li] = true
				o.known[li] = l.Grades[depth]
				o.lower += l.Grades[depth]
				o.nKnown++
			}
		}
		if len(objs) > stats.Buffered {
			stats.Buffered = len(objs)
		}
		// Termination: k-th best lower bound ≥ every other upper bound
		// and ≥ the unseen-object bound Σ last.
		if len(objs) < k {
			continue
		}
		var lowers []float64
		for _, o := range objs {
			lowers = append(lowers, o.lower)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(lowers)))
		kth := lowers[k-1]
		unseenBound := 0.0
		for _, g := range last {
			unseenBound += g
		}
		if kth < unseenBound {
			continue
		}
		ok := true
		count := 0
		for _, o := range objs {
			if o.lower >= kth {
				count++
				continue
			}
			if upper(o) > kth {
				ok = false
				break
			}
		}
		if ok && count >= k {
			var out []Candidate
			for id, o := range objs {
				out = append(out, Candidate{ID: id, Score: o.lower})
			}
			sort.Slice(out, func(i, j int) bool {
				if out[i].Score != out[j].Score {
					return out[i].Score > out[j].Score
				}
				return out[i].ID < out[j].ID
			})
			return out[:k], stats
		}
	}
	// Exhausted all lists: all grades known; lower bounds are exact.
	var out []Candidate
	for id, o := range objs {
		out = append(out, Candidate{ID: id, Score: o.lower})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, stats
}

// insertTop inserts c into the descending-sorted slice keeping ≤ k
// entries.
func insertTop(top *[]Candidate, c Candidate, k int) {
	s := *top
	pos := sort.Search(len(s), func(i int) bool {
		if s[i].Score != c.Score {
			return s[i].Score < c.Score
		}
		return s[i].ID > c.ID
	})
	s = append(s, Candidate{})
	copy(s[pos+1:], s[pos:])
	s[pos] = c
	if len(s) > k {
		s = s[:k]
	}
	*top = s
}

// BruteForce computes the exact top-k by scanning everything — the
// correctness oracle for tests and the "RAM-model baseline" of E4.
func BruteForce(lists []*List, k int, agg ScoreAgg) []Candidate {
	m := len(lists)
	idx := make([]gradeIndex, m)
	ids := make(map[int]bool)
	for i, l := range lists {
		idx[i] = indexList(l)
		for _, id := range l.IDs {
			ids[id] = true
		}
	}
	grades := make([]float64, m)
	var all []Candidate
	for id := range ids {
		for gi := range lists {
			grades[gi] = idx[gi][id]
		}
		all = append(all, Candidate{ID: id, Score: agg.Score(grades)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
