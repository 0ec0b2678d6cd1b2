package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/relation"
)

// oracleK is how many of the best weights the oracle keeps per ranking;
// it is the largest k any workload asks for.
const oracleK = 1000

// An oracle is the benchmark's own answer for one fixture: the number
// of join results and the oracleK smallest weights under SUM and (when
// asked) MAX. It is computed by a hash-index backtracking join over the
// fixture's relations and shares no code with the engine.
type oracle struct {
	count int64
	sum   []float64 // ascending
	max   []float64 // ascending; nil unless requested
}

// bounded keeps the k smallest values pushed into it (a max-heap of
// size k whose root is the current k-th smallest).
type bounded struct {
	k int
	h []float64
}

func (b *bounded) full() bool { return len(b.h) == b.k }

// worst is the k-th smallest so far; +Inf until k values arrived.
func (b *bounded) worst() float64 {
	if !b.full() {
		return math.Inf(1)
	}
	return b.h[0]
}

func (b *bounded) push(v float64) {
	if !b.full() {
		b.h = append(b.h, v)
		for i := len(b.h) - 1; i > 0; {
			p := (i - 1) / 2
			if b.h[p] >= b.h[i] {
				break
			}
			b.h[p], b.h[i] = b.h[i], b.h[p]
			i = p
		}
		return
	}
	if v >= b.h[0] {
		return
	}
	b.h[0] = v
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(b.h) && b.h[l] > b.h[m] {
			m = l
		}
		if r < len(b.h) && b.h[r] > b.h[m] {
			m = r
		}
		if m == i {
			break
		}
		b.h[i], b.h[m] = b.h[m], b.h[i]
		i = m
	}
}

func (b *bounded) sorted() []float64 {
	out := append([]float64(nil), b.h...)
	sort.Float64s(out)
	return out
}

// oracleAtom is one relation in join order: which of its columns are
// bound by earlier atoms (the probe key) and which bind new variables.
type oracleAtom struct {
	rel       *relation.Relation
	vars      []int // variable id per column
	boundCols []int
	freeCols  []int
	index     map[[2]relation.Value][]int32
}

// solveOracle joins the fixture by backtracking: atoms are ordered
// greedily (smallest first, then whichever shares most variables with
// those already placed), each is hash-indexed on the columns earlier
// atoms bind, and the recursion extends one atom at a time.
func solveOracle(f *fixture, withMax bool) *oracle {
	if f.star {
		return solveStarOracle(f)
	}
	varID := map[string]int{}
	for _, e := range f.edges {
		for _, v := range e.Vars {
			if _, ok := varID[v]; !ok {
				varID[v] = len(varID)
			}
		}
	}
	n := len(f.edges)
	placed := make([]bool, n)
	bound := make([]bool, len(varID))
	atoms := make([]*oracleAtom, 0, n)
	for len(atoms) < n {
		best, bestShared := -1, -1
		for i, e := range f.edges {
			if placed[i] {
				continue
			}
			shared := 0
			for _, v := range e.Vars {
				if bound[varID[v]] {
					shared++
				}
			}
			if shared > bestShared || (shared == bestShared && f.rels[i].Len() < f.rels[best].Len()) {
				best, bestShared = i, shared
			}
		}
		placed[best] = true
		a := &oracleAtom{rel: f.rels[best], index: map[[2]relation.Value][]int32{}}
		for c, v := range f.edges[best].Vars {
			id := varID[v]
			a.vars = append(a.vars, id)
			if bound[id] {
				a.boundCols = append(a.boundCols, c)
			} else {
				a.freeCols = append(a.freeCols, c)
			}
		}
		if len(a.boundCols) > 2 {
			panic("bench: oracle supports at most two probe columns per atom")
		}
		for _, c := range a.freeCols {
			bound[a.vars[c]] = true
		}
		for row, t := range a.rel.Tuples {
			var key [2]relation.Value
			for i, c := range a.boundCols {
				key[i] = t[c]
			}
			a.index[key] = append(a.index[key], int32(row))
		}
		atoms = append(atoms, a)
	}

	o := &oracle{}
	sums := &bounded{k: oracleK}
	var maxs *bounded
	if withMax {
		maxs = &bounded{k: oracleK}
	}
	binding := make([]relation.Value, len(varID))
	var rec func(depth int, sum, max float64)
	rec = func(depth int, sum, max float64) {
		if depth == len(atoms) {
			o.count++
			sums.push(sum)
			if maxs != nil {
				maxs.push(max)
			}
			return
		}
		a := atoms[depth]
		var key [2]relation.Value
		for i, c := range a.boundCols {
			key[i] = binding[a.vars[c]]
		}
		for _, row := range a.index[key] {
			t := a.rel.Tuples[row]
			for _, c := range a.freeCols {
				binding[a.vars[c]] = t[c]
			}
			w := a.rel.Weights[row]
			rec(depth+1, sum+w, math.Max(max, w))
		}
	}
	rec(0, 0, math.Inf(-1))
	o.sum = sums.sorted()
	if maxs != nil {
		o.max = maxs.sorted()
	}
	return o
}

// solveStarOracle handles a star R1(C,X1) ⋈ … ⋈ Rl(C,Xl) whose output
// cannot be enumerated: per centre value the results are the cross
// product of the l groups, so the count is Σ_c Π_i |group_i(c)| and the
// k lightest sums come from merging the groups' sorted weights, centre
// by centre in order of each centre's lightest result, until a centre's
// lightest is no better than the k-th found.
func solveStarOracle(f *fixture) *oracle {
	l := len(f.rels)
	groups := make([]map[relation.Value][]float64, l)
	for i, r := range f.rels {
		if f.edges[i].Vars[0] != f.edges[0].Vars[0] {
			panic("bench: star oracle expects the centre in column 0")
		}
		g := map[relation.Value][]float64{}
		for row, t := range r.Tuples {
			g[t[0]] = append(g[t[0]], r.Weights[row])
		}
		for _, ws := range g {
			sort.Float64s(ws)
		}
		groups[i] = g
	}
	type centre struct {
		lists [][]float64
		lb    float64
	}
	var centres []centre
	o := &oracle{}
	for c, first := range groups[0] {
		ct := centre{lists: [][]float64{first}, lb: first[0]}
		n := int64(len(first))
		for i := 1; i < l && n > 0; i++ {
			ws := groups[i][c]
			n *= int64(len(ws))
			if len(ws) > 0 {
				ct.lists = append(ct.lists, ws)
				ct.lb += ws[0]
			}
		}
		if n == 0 {
			continue
		}
		o.count += n
		centres = append(centres, ct)
	}
	sort.Slice(centres, func(i, j int) bool { return centres[i].lb < centres[j].lb })
	best := &bounded{k: oracleK}
	for _, ct := range centres {
		if ct.lb >= best.worst() {
			break
		}
		// rest[i] is the lightest completion over lists i..l-1.
		rest := make([]float64, l+1)
		for i := l - 1; i >= 0; i-- {
			rest[i] = rest[i+1] + ct.lists[i][0]
		}
		cur := []float64{0}
		for i, ws := range ct.lists {
			var next []float64
			for _, a := range cur {
				for _, b := range ws {
					if a+b+rest[i+1] >= best.worst() {
						break
					}
					next = append(next, a+b)
				}
			}
			sort.Float64s(next)
			if len(next) > oracleK {
				next = next[:oracleK]
			}
			cur = next
		}
		for _, v := range cur {
			best.push(v)
		}
	}
	o.sum = best.sorted()
	return o
}

// aggSum and aggMax name the two rankings the workloads use, in the
// server's ?agg= spelling.
const (
	aggSum = "sum"
	aggMax = "max"
)

func (o *oracle) top(agg string) []float64 {
	if agg == aggMax {
		return o.max
	}
	return o.sum
}

// verify checks one drained run against the oracle. got holds the
// weights of the run's first results in arrival order (at most oracleK
// of them), n is how many results the run produced in all, limit the k
// it was asked for (0 = to exhaustion), and monotone whether the drain
// loop saw every weight at or above its predecessor. It reports the
// first discrepancy: a wrong count, an out-of-order pair, or a weight
// off by more than 1e-9 relative.
func (o *oracle) verify(agg string, got []float64, n int64, limit int, monotone bool) error {
	want := o.count
	if limit > 0 && int64(limit) < want {
		want = int64(limit)
	}
	if n != want {
		return fmt.Errorf("%d results, oracle says %d", n, want)
	}
	if !monotone {
		return fmt.Errorf("weights not in ranking order")
	}
	top := o.top(agg)
	for i, w := range got {
		if i > 0 && w < got[i-1] {
			return fmt.Errorf("result %d (weight %g) ranks before result %d (weight %g)", i, w, i-1, got[i-1])
		}
		if i >= len(top) {
			break
		}
		if d := math.Abs(w - top[i]); d > 1e-9*math.Max(1, math.Abs(top[i])) {
			return fmt.Errorf("result %d weight %.12g, oracle says %.12g", i, w, top[i])
		}
	}
	return nil
}
