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
// copied into fixed-capacity chunks that are never regrown; ConcatRows
// then allocates the one Weights array at its final length, and the
// chunks' value arrays become the rows' storage. An append-grown
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

// Rows is the output of an operator that collected its rows in
// Builders, kept as it was produced: the builders' value chunks, one
// Weights array and a page table from a row to its chunk. A row costs
// its arity·8 B of values and 8 B of weight, with no per-row header;
// Row(i) returns a cap-clipped view of its values. A consumer that needs
// a Relation calls Relation, which builds the []Tuple headers. Rows are
// read-only.
type Rows struct {
	// Weights[i] is row i's weight, allocated once at its final length.
	Weights []float64

	arity  int
	chunks [][]Value // each chunk's rows, row-major
	starts []int     // starts[c] is chunk c's first row; starts[len(chunks)] == Len()
	page   []int32   // page[p] is the chunk holding row p·minChunkRows
}

// Len reports the number of rows.
func (r *Rows) Len() int { return len(r.Weights) }

// Row returns row i's values, a cap-clipped view into its chunk. Every
// chunk but a builder's last holds at least minChunkRows rows, so the
// walk from a page's first chunk to row i's takes a step only past the
// last chunk of some builder.
func (r *Rows) Row(i int) Tuple {
	c := int(r.page[i/minChunkRows])
	for r.starts[c+1] <= i {
		c++
	}
	j := (i - r.starts[c]) * r.arity
	return r.chunks[c][j : j+r.arity : j+r.arity]
}

// Relation returns the rows as a relation with the given name and
// schema: one Tuples array of cap-clipped views into the chunks, and
// the Rows' Weights, both shared. It panics if the rows' arity
// mismatches attrs, like AddTuple.
func (r *Rows) Relation(name string, attrs []string) *Relation {
	out := New(name, attrs...)
	if r.Len() == 0 {
		return out
	}
	a := len(attrs)
	if r.arity != a {
		panic(fmt.Sprintf("relation %s: tuple arity %d != schema arity %d", name, r.arity, a))
	}
	out.Tuples = make([]Tuple, r.Len())
	out.Weights = r.Weights
	for c, vals := range r.chunks {
		for i := r.starts[c]; i < r.starts[c+1]; i++ {
			j := (i - r.starts[c]) * a
			out.Tuples[i] = vals[j : j+a : j+a]
		}
	}
	return out
}

// ConcatRows returns the rows of the builders, in argument order and,
// within a builder, in Add order. Weights is allocated once at its final
// length (cap == len; nil when there are no rows), and the builders'
// value chunks become the rows' storage; a builder's partly filled last
// chunk is first copied to its exact length, so no unfilled chunk tail
// stays resident. It panics if two builders hold rows of different
// arities. The builders are emptied.
func ConcatRows(builders ...*Builder) *Rows {
	n, nc, arity := 0, 0, -1
	for _, b := range builders {
		if b.Len() == 0 {
			continue
		}
		if arity >= 0 && b.arity != arity {
			panic(fmt.Sprintf("relation: builder rows of arity %d beside rows of arity %d", b.arity, arity))
		}
		n, nc, arity = n+b.Len(), nc+len(b.full)+1, b.arity
	}
	out := &Rows{arity: max(arity, 0), chunks: make([][]Value, 0, nc), starts: make([]int, 1, nc+1)}
	if n > 0 {
		out.Weights = make([]float64, n)
		out.page = make([]int32, (n+minChunkRows-1)/minChunkRows)
	}
	for _, b := range builders {
		if b.Len() == 0 {
			continue
		}
		if len(b.cur.ws) < cap(b.cur.ws) {
			b.cur.vals = append(make([]Value, 0, len(b.cur.vals)), b.cur.vals...)
		}
		chunks := append(b.full, b.cur)
		*b = Builder{}
		for _, c := range chunks {
			start := out.starts[len(out.starts)-1]
			end := start + copy(out.Weights[start:], c.ws)
			for p := (start + minChunkRows - 1) / minChunkRows; p*minChunkRows < end; p++ {
				out.page[p] = int32(len(out.chunks))
			}
			out.chunks = append(out.chunks, c.vals)
			out.starts = append(out.starts, end)
		}
	}
	return out
}
