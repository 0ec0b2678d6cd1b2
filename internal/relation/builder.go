package relation

import "fmt"

// A chunk of a Builder holds minChunkRows rows at first and doubles up
// to maxChunkRows: a ten-row output pays for 2 KB, not for a 128 KB
// chunk, and a large one opens a chunk once per maxChunkRows rows.
const (
	minChunkRows = 64
	maxChunkRows = 4096
)

// builderRow is one collected row. A chunk is one array of these, so
// opening it is one allocation.
type builderRow struct {
	t Tuple
	w float64
}

// Builder collects the rows of a relation whose size is not known until
// the last row has been produced (a join's output, a selection's
// survivors). Rows go into fixed-capacity chunks that are never regrown
// or copied; Concat then allocates the relation's two arrays once, at
// their final length. An append-grown array instead re-allocates, zeroes
// and copies itself at every 1.25× step — about five times the final
// array in total. The zero value is an empty Builder.
type Builder struct {
	full [][]builderRow // the filled chunks, oldest first
	cur  []builderRow   // the chunk being filled
}

// Add takes t (without copying) with weight w. It reports whether the
// row opened a new chunk, which happens at most once per maxChunkRows
// rows past the first few: the place for a producer to poll something it
// cannot afford to poll per row, such as a context.
func (b *Builder) Add(t Tuple, w float64) (opened bool) {
	if len(b.cur) == cap(b.cur) {
		size := minChunkRows
		if b.cur != nil {
			b.full = append(b.full, b.cur)
			size = min(2*cap(b.cur), maxChunkRows)
		}
		b.cur = make([]builderRow, 0, size)
		opened = true
	}
	b.cur = append(b.cur, builderRow{t, w})
	return opened
}

// Len reports the number of rows collected.
func (b *Builder) Len() int {
	n := len(b.cur)
	for _, c := range b.full {
		n += len(c)
	}
	return n
}

// Concat returns the relation holding the rows of the builders, in
// argument order and, within a builder, in Add order. Tuples and Weights
// are allocated once at their final length (cap == len; nil when there
// are no rows). It panics if a tuple's arity mismatches attrs, like
// AddTuple. The builders are emptied, so their chunks are garbage once
// copied out.
func Concat(name string, attrs []string, builders ...*Builder) *Relation {
	out := New(name, attrs...)
	n := 0
	for _, b := range builders {
		n += b.Len()
	}
	if n == 0 {
		return out
	}
	out.Tuples = make([]Tuple, n)
	out.Weights = make([]float64, n)
	i := 0
	for _, b := range builders {
		chunks := append(b.full, b.cur)
		*b = Builder{}
		for _, c := range chunks {
			for _, row := range c {
				if len(row.t) != len(attrs) {
					panic(fmt.Sprintf("relation %s: tuple arity %d != schema arity %d", name, len(row.t), len(attrs)))
				}
				out.Tuples[i], out.Weights[i] = row.t, row.w
				i++
			}
		}
	}
	return out
}
