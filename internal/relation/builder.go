package relation

import "fmt"

// A chunk of a Builder holds minChunkRows rows at first and doubles up
// to maxChunkRows: a ten-row output pays for 2 KB, not for a 128 KB
// chunk, and a large one opens a chunk once per maxChunkRows rows.
const (
	minChunkRows = 64
	maxChunkRows = 4096
)

// chunk is a run of collected rows: their values row after row in one
// array (rows × arity) and their weights in another, so opening it is
// two allocations whatever the number of rows it will hold.
type chunk struct {
	vals []Value
	ws   []float64
}

// Builder collects the rows of a relation whose size is not known until
// the last row has been produced (a join's output, a bag). Rows are
// copied into fixed-capacity chunks that are never regrown; Concat then
// allocates the relation's two arrays once, at their final length, and
// the chunks' value arrays become its tuples' storage. An append-grown
// array instead re-allocates, zeroes and copies itself at every 1.25×
// step — about five times the final array in total. The zero value is an
// empty Builder.
type Builder struct {
	arity int     // every row's length, fixed by the first Add
	full  []chunk // the filled chunks, oldest first
	cur   chunk   // the chunk being filled
}

// Add copies t into the builder with weight w, so the caller may reuse
// t. Every row of a builder has the first row's arity; Add panics on
// another. It reports whether the row opened a new chunk, which happens
// at most once per maxChunkRows rows past the first few: the place for a
// producer to poll something it cannot afford to poll per row, such as a
// context.
func (b *Builder) Add(t Tuple, w float64) (opened bool) {
	if len(b.cur.ws) == cap(b.cur.ws) {
		size := minChunkRows
		if b.cur.ws != nil {
			b.full = append(b.full, b.cur)
			size = min(2*cap(b.cur.ws), maxChunkRows)
		} else {
			b.arity = len(t)
		}
		b.cur = chunk{vals: make([]Value, 0, size*b.arity), ws: make([]float64, 0, size)}
		opened = true
	}
	if len(t) != b.arity {
		panic(fmt.Sprintf("relation: builder row of arity %d after rows of arity %d", len(t), b.arity))
	}
	b.cur.vals = append(b.cur.vals, t...)
	b.cur.ws = append(b.cur.ws, w)
	return opened
}

// Len reports the number of rows collected.
func (b *Builder) Len() int {
	n := len(b.cur.ws)
	for _, c := range b.full {
		n += len(c.ws)
	}
	return n
}

// Concat returns the relation holding the rows of the builders, in
// argument order and, within a builder, in Add order. Tuples and Weights
// are allocated once at their final length (cap == len; nil when there
// are no rows). Each tuple is a cap-clipped view into its builder's
// chunks, which become the relation's storage; a builder's partly
// filled last chunk is first copied to its exact length, so no unfilled
// chunk tail stays resident. It panics if a builder's arity mismatches
// attrs, like AddTuple. The builders are emptied.
func Concat(name string, attrs []string, builders ...*Builder) *Relation {
	out := New(name, attrs...)
	n := 0
	for _, b := range builders {
		n += b.Len()
	}
	a := len(attrs)
	if n > 0 {
		out.Tuples = make([]Tuple, n)
		out.Weights = make([]float64, n)
	}
	i := 0
	for _, b := range builders {
		if b.Len() > 0 && b.arity != a {
			panic(fmt.Sprintf("relation %s: tuple arity %d != schema arity %d", name, b.arity, a))
		}
		if len(b.cur.ws) < cap(b.cur.ws) {
			b.cur.vals = append(make([]Value, 0, len(b.cur.vals)), b.cur.vals...)
		}
		chunks := append(b.full, b.cur)
		*b = Builder{}
		for _, c := range chunks {
			for r, w := range c.ws {
				out.Tuples[i] = c.vals[r*a : (r+1)*a : (r+1)*a]
				out.Weights[i] = w
				i++
			}
		}
	}
	return out
}
