// Package relation implements the weighted relational substrate the rest
// of the library builds on: schemas, tuples over an integer domain,
// weighted relations, and the one grouping primitive under every join
// algorithm.
//
// Tuples carry a weight (the input to the ranking function); the weight
// of a join result is the aggregate of the weights of its constituent
// input tuples, matching the cost model of the tutorial's Part 3.
//
// "Group the rows of a stage by their join key" is the O(n) step the
// T-DP's linear preprocessing rests on, and it is spelled once, in
// index.go: KeyTable maps distinct k-column keys to dense ids, Index is
// a KeyTable plus the rows in CSR form, and Dedup, EqualAsSet and
// ApplyDelta are passes over the table. What callers may rely on:
//
//   - Ids are numbered by first appearance and a group's rows ascend,
//     so everything built from a grouping (plans, Stats, ranked
//     sequences, tie order) is deterministic.
//   - The hash is seeded once per process, because datasets arrive over
//     HTTP; no id, row order or count depends on the seed.
//   - An index on zero attributes is one group holding every row (no
//     group on an empty relation); Find returns -1 for an absent key
//     and panics, like Lookup, on a key of the wrong arity.
//   - Building an index allocates a fixed number of arrays whatever the
//     number of groups, and the row arrays (GroupOf, Rows) do not
//     reference the probe table: dp.Plan keeps them and drops the Index.
//
// No relation array is grown by append. An operator that does not know
// its output size (a join, bag materialisation) collects rows in a
// Builder and Concat allocates Tuples and Weights once, at their final
// length; a row filter (Select, join.SemiJoin) collects surviving row
// ids first and Subset builds the result off them; a caller that knows
// the length presizes.
// AddTuple and AddWeighted remain for generators and tests.
//
// A relation an operator builds stores its values in a few large arrays,
// not one per row: Concat's tuples are views into the Builder's chunks,
// and Project, Clone and a compacting Select write one array each. Every
// such view is cap-clipped, so an append to a tuple reallocates instead
// of writing its neighbour. Tuples are read-only: relations, selections
// and epochs share them, so a caller that wants to edit one copies it.
// A Select that keeps fewer than half the rows copies the survivors into
// a fresh array, so a selection never pins more than twice its own
// values and the reducer's semi-joins let a bag's dangling rows go.
//
// The sorted-permutation tries of internal/wcoj are an ordered view of
// the same tuples: a different structure for a different job.
package relation

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Value is a domain value. All attributes share the integer domain;
// command-line tools map external strings through a Dictionary.
type Value = int64

// Tuple is a sequence of values aligned with a relation's attributes.
type Tuple []Value

// Relation is a named, weighted relation. Tuples[i] has weight
// Weights[i]. Relations are bags (duplicates allowed) unless deduplicated
// explicitly.
type Relation struct {
	Name    string
	Attrs   []string
	Tuples  []Tuple
	Weights []float64
}

// New returns an empty relation with the given name and attributes.
func New(name string, attrs ...string) *Relation {
	return &Relation{Name: name, Attrs: append([]string(nil), attrs...)}
}

// Add appends a tuple with weight 0. It panics if the arity mismatches.
func (r *Relation) Add(vals ...Value) {
	r.AddWeighted(0, vals...)
}

// AddWeighted appends a tuple with the given weight. It panics if the
// arity mismatches, which always indicates a programming error.
func (r *Relation) AddWeighted(weight float64, vals ...Value) {
	if len(vals) != len(r.Attrs) {
		panic(fmt.Sprintf("relation %s: tuple arity %d != schema arity %d", r.Name, len(vals), len(r.Attrs)))
	}
	t := make(Tuple, len(vals))
	copy(t, vals)
	r.Tuples = append(r.Tuples, t)
	r.Weights = append(r.Weights, weight)
}

// AddTuple appends t (without copying) with the given weight. It is the
// right call for generators, tests and loops of known length over a
// presized relation; an operator that does not know how many rows it
// will produce collects them in a Builder, because growing Tuples and
// Weights by append allocates about five times their final size.
func (r *Relation) AddTuple(t Tuple, weight float64) {
	if len(t) != len(r.Attrs) {
		panic(fmt.Sprintf("relation %s: tuple arity %d != schema arity %d", r.Name, len(t), len(r.Attrs)))
	}
	r.Tuples = append(r.Tuples, t)
	r.Weights = append(r.Weights, weight)
}

// Len reports the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Arity reports the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// DenseColumn reports whether column c is dense enough to address by
// value: it returns the column's minimum and the number of values in
// [min, max] when that is at most 2·Len(), so that one int32 per value
// costs at most 8 B per row, and span 0 when the column is sparse or
// the relation empty. The difference is taken in uint64, where it
// cannot overflow for any min ≤ max. The trie offsets of internal/wcoj
// and the counts of internal/catalog both follow this one rule.
func (r *Relation) DenseColumn(c int) (base Value, span int) {
	if len(r.Tuples) == 0 {
		return 0, 0
	}
	lo, hi := r.Tuples[0][c], r.Tuples[0][c]
	for _, t := range r.Tuples {
		lo, hi = min(lo, t[c]), max(hi, t[c])
	}
	if d := uint64(hi) - uint64(lo); d < 2*uint64(len(r.Tuples)) {
		return lo, int(d) + 1
	}
	return 0, 0
}

// AttrIndex returns the position of attr in the schema, or -1.
func (r *Relation) AttrIndex(attr string) int {
	for i, a := range r.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// AttrIndexes maps attribute names to positions. It returns an error for
// unknown attributes.
func (r *Relation) AttrIndexes(attrs []string) ([]int, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.AttrIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("relation %s: unknown attribute %q", r.Name, a)
		}
		idx[i] = j
	}
	return idx, nil
}

// HasAttr reports whether attr is in the schema.
func (r *Relation) HasAttr(attr string) bool { return r.AttrIndex(attr) >= 0 }

// SharedAttrs returns the attribute names present in both relations, in
// r's schema order.
func (r *Relation) SharedAttrs(other *Relation) []string {
	var shared []string
	for _, a := range r.Attrs {
		if other.HasAttr(a) {
			shared = append(shared, a)
		}
	}
	return shared
}

// Clone returns a deep copy, its values in one array.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		Name:    r.Name,
		Attrs:   append([]string(nil), r.Attrs...),
		Tuples:  make([]Tuple, len(r.Tuples)),
		Weights: append([]float64(nil), r.Weights...),
	}
	pack(c.Tuples, r.Tuples)
	return c
}

// pack copies the tuples of src into one fresh array and stores in
// dst[i] a cap-clipped view of src[i]'s copy; dst may be src.
func pack(dst, src []Tuple) {
	n := 0
	for _, t := range src {
		n += len(t)
	}
	vals := make([]Value, n)
	off := 0
	for i, t := range src {
		end := off + copy(vals[off:], t)
		dst[i] = vals[off:end:end]
		off = end
	}
}

// Project returns a new relation restricted to the given attributes
// (duplicates preserved; weights carried over). Its values are one
// array.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	idx, err := r.AttrIndexes(attrs)
	if err != nil {
		return nil, err
	}
	out := New(r.Name+"_proj", attrs...)
	a := len(idx)
	vals := make([]Value, len(r.Tuples)*a)
	out.Tuples = make([]Tuple, len(r.Tuples))
	out.Weights = make([]float64, len(r.Tuples))
	copy(out.Weights, r.Weights)
	for i, t := range r.Tuples {
		nt := vals[i*a : (i+1)*a : (i+1)*a]
		for j, c := range idx {
			nt[j] = t[c]
		}
		out.Tuples[i] = nt
	}
	return out, nil
}

// Select returns a new relation containing the tuples for which keep
// returns true, in r's order. It is the right call for any row filter
// over an existing relation (a semi-join is Select with an index probe
// as keep): the surviving row ids are collected in one vector sized
// len(r.Tuples), then Tuples and Weights are allocated at exactly the
// surviving length. Survivors share r's tuples when they are at least
// half of r's rows; fewer are copied into one fresh array, so the
// selection does not keep r's values alive.
func (r *Relation) Select(keep func(t Tuple, w float64) bool) *Relation {
	rows := make([]int32, 0, len(r.Tuples))
	for i, t := range r.Tuples {
		if keep(t, r.Weights[i]) {
			rows = append(rows, int32(i))
		}
	}
	out := r.Subset(rows)
	out.Name = r.Name + "_sel"
	return out
}

// Subset returns the relation of r's rows at the ascending positions
// rows, under r's name, with Tuples and Weights allocated at exactly
// that length (nil for no row). It is Select once the surviving rows are
// known, and shares r's tuples or copies them by the same rule.
func (r *Relation) Subset(rows []int32) *Relation {
	out := New(r.Name, r.Attrs...)
	if len(rows) == 0 {
		return out
	}
	out.Tuples = make([]Tuple, len(rows))
	out.Weights = make([]float64, len(rows))
	for i, row := range rows {
		out.Tuples[i], out.Weights[i] = r.Tuples[row], r.Weights[row]
	}
	if 2*len(rows) < len(r.Tuples) {
		pack(out.Tuples, out.Tuples)
	}
	return out
}

// SameContent reports exact content equality — same tuples in the same
// row order, bit-equal weights. It is how an incremental sweep decides
// that a recomputed node came out as before: a semi-join keeps its left
// input's row order, so equal inputs reproduce the old output verbatim.
func SameContent(a, b *Relation) bool {
	return a == b || a.Arity() == b.Arity() && slices.Equal(a.Weights, b.Weights) &&
		slices.EqualFunc(a.Tuples, b.Tuples, slices.Equal[[]Value])
}

// SortByWeight sorts tuples by ascending weight (stable).
func (r *Relation) SortByWeight() {
	r.sortBy(func(i, j int) bool { return r.Weights[i] < r.Weights[j] })
}

// sortBy sorts tuples and weights together with the given less on row
// indices.
func (r *Relation) sortBy(less func(i, j int) bool) {
	rows := make([]int, len(r.Tuples))
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	nt := make([]Tuple, len(rows))
	nw := make([]float64, len(rows))
	for i, row := range rows {
		nt[i] = r.Tuples[row]
		nw[i] = r.Weights[row]
	}
	r.Tuples, r.Weights = nt, nw
}

// Dedup removes duplicate tuples, keeping the lightest weight for each
// distinct tuple (the earliest row among equally light ones). Distinct
// tuples stay in order of first appearance.
func (r *Relation) Dedup() {
	seen := NewKeyTable(len(r.Attrs), len(r.Tuples))
	var best []int // per distinct tuple, its lightest row
	for i, t := range r.Tuples {
		if id, added := seen.Insert(t); added {
			best = append(best, i)
		} else if r.Weights[i] < r.Weights[best[id]] {
			best[id] = i
		}
	}
	nt := make([]Tuple, len(best))
	nw := make([]float64, len(best))
	for id, i := range best {
		nt[id], nw[id] = r.Tuples[i], r.Weights[i]
	}
	r.Tuples, r.Weights = nt, nw
}

// EqualAsSet reports whether two relations contain the same multiset of
// (tuple, weight) pairs, ignoring order and name. Schemas must match.
func (r *Relation) EqualAsSet(other *Relation) bool {
	if !slices.Equal(r.Attrs, other.Attrs) || len(r.Tuples) != len(other.Tuples) {
		return false
	}
	// The weight's bit pattern rides along as one more key column.
	pairs := NewKeyTable(len(r.Attrs)+1, len(r.Tuples))
	var count []int
	var key []Value
	for i, t := range r.Tuples {
		key = append(append(key[:0], t...), Value(math.Float64bits(r.Weights[i])))
		id, added := pairs.Insert(key)
		if added {
			count = append(count, 0)
		}
		count[id]++
	}
	for i, t := range other.Tuples {
		key = append(append(key[:0], t...), Value(math.Float64bits(other.Weights[i])))
		id := pairs.Find(key)
		if id < 0 || count[id] == 0 {
			return false
		}
		count[id]--
	}
	return true
}

// ApplyDelta returns a new relation holding r's rows minus every row
// equal by value to some del tuple (all duplicates; weights are not
// consulted), followed by the app rows with weights appW (nil means all
// zero), plus the number of rows removed. Neither r nor its slices are
// mutated — snapshots and epochs share them — and the app tuples are
// taken as they are, not copied. Tuples must have r's arity.
func (r *Relation) ApplyDelta(del, app []Tuple, appW []float64) (*Relation, int) {
	out := New(r.Name, r.Attrs...)
	out.Tuples = make([]Tuple, 0, len(r.Tuples)+len(app))
	out.Weights = make([]float64, 0, len(r.Tuples)+len(app))
	kill := NewKeyTable(len(r.Attrs), len(del))
	for _, t := range del {
		kill.Insert(t)
	}
	for i, t := range r.Tuples {
		if kill.Len() == 0 || kill.Find(t) < 0 {
			out.Tuples = append(out.Tuples, t)
			out.Weights = append(out.Weights, r.Weights[i])
		}
	}
	removed := len(r.Tuples) - len(out.Tuples)
	out.Tuples = append(out.Tuples, app...)
	if appW == nil {
		appW = make([]float64, len(app))
	}
	out.Weights = append(out.Weights, appW...)
	return out, removed
}

// String renders the relation as a small table (for tests and examples).
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d tuples]\n", r.Name, strings.Join(r.Attrs, ","), len(r.Tuples))
	n := len(r.Tuples)
	const maxRows = 20
	for i := 0; i < n && i < maxRows; i++ {
		fmt.Fprintf(&b, "  %v w=%g\n", []Value(r.Tuples[i]), r.Weights[i])
	}
	if n > maxRows {
		fmt.Fprintf(&b, "  ... (%d more)\n", n-maxRows)
	}
	return b.String()
}
