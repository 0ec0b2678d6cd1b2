package relation

import (
	"fmt"
	"hash/maphash"
	"math/bits"
)

// processSeed keys every KeyTable's hash. It is drawn once per process:
// datasets arrive over HTTP, so bucket placement must not be something a
// client can compute. Nothing observable depends on it — ids are handed
// out in first-seen order whatever the probe sequence was.
var processSeed = maphash.Bytes(maphash.MakeSeed(), nil)

// KeyTable maps distinct fixed-width key vectors to dense ids numbered
// by first insertion. Keys are stored flat, one after another, and found
// by open addressing (linear probing) over a seeded integer hash of
// their values: no key is encoded into bytes or allocated on its own.
// It is the one place that knows how a key is hashed and found.
type KeyTable struct {
	width int
	n     int     // distinct keys; not len(keys)/width, which is 0/0 at width 0
	keys  []Value // key id is keys[id*width : (id+1)*width]
	slots []int32 // id+1 of the key placed there, 0 for an empty slot
	seed  uint64
}

// NewKeyTable returns an empty table for keys of width values; up to
// hint keys insert without growing it.
func NewKeyTable(width, hint int) *KeyTable {
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	return &KeyTable{width: width, keys: make([]Value, 0, hint*width), slots: make([]int32, size), seed: processSeed}
}

// Len is the number of distinct keys; ids run from 0 to Len()-1.
func (t *KeyTable) Len() int { return t.n }

func (t *KeyTable) key(id int) []Value { return t.keys[id*t.width : (id+1)*t.width] }

// Find returns the id of key, or -1 if it was never inserted. It panics
// on a key of the wrong width, which is always a programming error.
func (t *KeyTable) Find(key []Value) int {
	id, _ := t.probe(key)
	return id
}

// Insert returns the id of key, adding it with the next free id if it is
// new (added reports which). The key's values are copied.
func (t *KeyTable) Insert(key []Value) (id int, added bool) {
	id, slot := t.probe(key)
	if id >= 0 {
		return id, false
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
		_, slot = t.probe(key)
	}
	t.keys = append(t.keys, key...)
	t.n++
	t.slots[slot] = int32(t.n)
	return t.n - 1, true
}

// probe walks key's probe sequence to its id, or to the empty slot where
// it would be placed (id -1).
func (t *KeyTable) probe(key []Value) (id, slot int) {
	if len(key) != t.width {
		panic(fmt.Sprintf("key arity %d != %d", len(key), t.width))
	}
	h := t.seed
	for _, v := range key {
		hi, lo := bits.Mul64(h^uint64(v), 0x9e3779b97f4a7c15)
		h = hi ^ lo
	}
	mask := len(t.slots) - 1
probing:
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		s := int(t.slots[slot])
		if s == 0 {
			return -1, slot
		}
		for j, v := range t.key(s - 1) {
			if v != key[j] {
				continue probing
			}
		}
		return s - 1, slot
	}
}

// grow doubles the slot array and re-places every key.
func (t *KeyTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	for id := 0; id < t.n; id++ {
		_, slot := t.probe(t.key(id))
		t.slots[slot] = int32(id + 1)
	}
}

// Index groups the rows of a relation by the values of some of its
// columns: a KeyTable of the distinct keys plus the rows in CSR form
// (the package comment has the contract). The row arrays do not
// reference the table.
type Index struct {
	table *KeyTable
	start []int32 // group g's rows are rows[start[g]:start[g+1]]
	rows  []int32
}

// NewIndex groups r's rows on the given attributes in O(|r|). An index
// on zero attributes is one group holding every row (no group at all on
// an empty relation).
func NewIndex(r *Relation, attrs ...string) (*Index, error) {
	cols, err := r.AttrIndexes(attrs)
	if err != nil {
		return nil, err
	}
	n := len(r.Tuples)
	ix := &Index{table: NewKeyTable(len(cols), n), rows: make([]int32, n)}
	groupOf := make([]int32, n) // row -> group
	key := make([]Value, len(cols))
	for i, t := range r.Tuples {
		for j, c := range cols {
			key[j] = t[c]
		}
		g, _ := ix.table.Insert(key)
		groupOf[i] = int32(g)
	}
	// Counting sort of the rows by group: sizes, then offsets, then a
	// placing pass that leaves start[g] at g's end, shifted back after.
	groups := ix.table.Len()
	ix.start = make([]int32, groups+1)
	for _, g := range groupOf {
		ix.start[g+1]++
	}
	for g := 1; g < groups; g++ {
		ix.start[g+1] += ix.start[g]
	}
	for i, g := range groupOf {
		ix.rows[ix.start[g]] = int32(i)
		ix.start[g]++
	}
	copy(ix.start[1:], ix.start[:groups])
	ix.start[0] = 0
	return ix, nil
}

// MustIndex is NewIndex that panics on schema errors (for internal use
// where attributes are known valid).
func MustIndex(r *Relation, attrs ...string) *Index {
	ix, err := NewIndex(r, attrs...)
	if err != nil {
		panic(err)
	}
	return ix
}

// Find returns the group whose key equals key, or -1. It panics on an
// arity mismatch.
func (ix *Index) Find(key []Value) int { return ix.table.Find(key) }

// FindBy is Find with the key read off a tuple of another relation:
// t's values at cols, the positions there of the indexed attributes.
func (ix *Index) FindBy(t Tuple, cols []int) int {
	var buf [4]Value // wider keys spill to the heap
	key := buf[:0]
	for _, c := range cols {
		key = append(key, t[c])
	}
	return ix.table.Find(key)
}

// Lookup returns the rows whose indexed columns equal key: Rows(Find(key)).
func (ix *Index) Lookup(key []Value) []int32 { return ix.Rows(ix.table.Find(key)) }

// Rows returns group g's rows, ascending — nil for g = -1, the group of
// an absent key. All groups' slices are windows of one array; callers
// must not mutate or append to them.
func (ix *Index) Rows(g int) []int32 {
	if g < 0 {
		return nil
	}
	return ix.rows[ix.start[g]:ix.start[g+1]:ix.start[g+1]]
}

// CSR returns the index's row arrays: group g's rows are
// rows[start[g]:start[g+1]]. They do not reference the key table, so
// keeping them keeps no probe structure; callers must not mutate them.
func (ix *Index) CSR() (start, rows []int32) { return ix.start, ix.rows }

// Keys returns the number of distinct keys, i.e. of groups.
func (ix *Index) Keys() int { return ix.table.Len() }

// MaxFanout returns the largest number of rows sharing one key (the
// maximum degree), used by heavy/light decompositions and tests.
func (ix *Index) MaxFanout() int {
	widest := 0
	for g := 0; g < ix.Keys(); g++ {
		widest = max(widest, len(ix.Rows(g)))
	}
	return widest
}
