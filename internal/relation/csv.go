package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Dictionary maps external string values to integer codes so that
// string-keyed data (e.g. city names in the rank-join example) can flow
// through the integer-domain engine. Codes start at DictBase so they
// never collide with ordinary numeric CSV values, which makes decoding
// mixed outputs unambiguous.
type Dictionary struct {
	toCode map[string]Value
	toStr  []string
}

// DictBase is the first code a Dictionary assigns.
const DictBase Value = 1 << 40

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{toCode: make(map[string]Value)}
}

// Code returns the code for s, assigning the next code on first sight.
func (d *Dictionary) Code(s string) Value {
	if c, ok := d.toCode[s]; ok {
		return c
	}
	c := DictBase + Value(len(d.toStr))
	d.toCode[s] = c
	d.toStr = append(d.toStr, s)
	return c
}

// Lookup returns the code for s and whether it exists.
func (d *Dictionary) Lookup(s string) (Value, bool) {
	c, ok := d.toCode[s]
	return c, ok
}

// String returns the string for code c, or "" if out of range.
func (d *Dictionary) String(c Value) string {
	s, _ := d.Decode(c)
	return s
}

// Decode returns the string for c when c is a code this dictionary
// assigned, with ok=false for ordinary numeric values (or codes it
// never assigned). Unlike String it distinguishes an encoded empty
// string from "not a dictionary code", which the serving layer needs
// when rendering mixed numeric/string output tuples.
func (d *Dictionary) Decode(c Value) (string, bool) {
	idx := c - DictBase
	if idx < 0 || int(idx) >= len(d.toStr) {
		return "", false
	}
	return d.toStr[idx], true
}

// Len reports the number of distinct strings.
func (d *Dictionary) Len() int { return len(d.toStr) }

// ReadCSV reads a relation from CSV. The first row is the header; the
// last column is parsed as the float64 weight when weightCol is true,
// otherwise all columns are values and weights default to 0.
//
// Value columns are typed per *column*, not per cell: a column is
// numeric only when every one of its cells parses as an integer;
// otherwise the whole column is dictionary-encoded through dict (which
// may be shared across relations). This keeps encodings consistent
// within a column — a column holding "7" on one row and "abc" on the
// next is treated as a string column throughout, so its "7" joins with
// "7" in other string columns (and the strings "07" and "7" stay
// distinct) instead of silently mixing numeric and dictionary codes
// that never match.
//
// Typing is per relation: a column that is all-numeric in one file
// stays numeric there even when the matching column of another file is
// mixed (and therefore string-typed), in which case the two never join.
// When an attribute holds strings in any file, make sure it is
// non-numeric (or quoted consistently) in every file that joins on it.
func ReadCSV(r io.Reader, name string, weightCol bool, dict *Dictionary) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("relation %s: empty CSV", name)
	}
	header := rows[0]
	nattrs := len(header)
	if weightCol {
		nattrs--
		if nattrs < 1 {
			return nil, fmt.Errorf("relation %s: need at least one value column", name)
		}
	}
	for ln, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("relation %s line %d: got %d fields, want %d", name, ln+2, len(row), len(header))
		}
	}
	// First pass: a column is numeric iff every data cell parses.
	numeric := make([]bool, nattrs)
	for i := range numeric {
		numeric[i] = true
	}
	for _, row := range rows[1:] {
		for i := 0; i < nattrs; i++ {
			if !numeric[i] {
				continue
			}
			if _, err := strconv.ParseInt(row[i], 10, 64); err != nil {
				numeric[i] = false
			}
		}
	}
	rel := New(name, header[:nattrs]...)
	rel.Tuples = make([]Tuple, len(rows)-1)
	rel.Weights = make([]float64, len(rows)-1)
	for ln, row := range rows[1:] {
		t := make(Tuple, nattrs)
		for i := 0; i < nattrs; i++ {
			if numeric[i] {
				v, err := strconv.ParseInt(row[i], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("relation %s line %d: bad numeric value %q: %w", name, ln+2, row[i], err)
				}
				// With a dictionary in play, raw integers at or above
				// DictBase would be indistinguishable from string codes
				// (Decode would render them as unrelated strings), so the
				// numeric domain is capped below the code space.
				if dict != nil && v >= DictBase {
					return nil, fmt.Errorf("relation %s line %d: integer value %d collides with the dictionary code space (numeric values must be < 2^40)", name, ln+2, v)
				}
				t[i] = v
			} else if dict != nil {
				t[i] = dict.Code(row[i])
			} else {
				return nil, fmt.Errorf("relation %s line %d: non-numeric value %q without dictionary", name, ln+2, row[i])
			}
		}
		rel.Tuples[ln] = t
		if weightCol {
			rel.Weights[ln], err = strconv.ParseFloat(row[nattrs], 64)
			if err != nil {
				return nil, fmt.Errorf("relation %s line %d: bad weight %q: %w", name, ln+2, row[nattrs], err)
			}
			// NaN compares false both ways, so it has no place in any
			// ranking order; ±Inf do (MaxCost/MinBenefit identities).
			if math.IsNaN(rel.Weights[ln]) {
				return nil, fmt.Errorf("relation %s line %d: weight %q is not a number (±Inf are allowed, NaN is not)", name, ln+2, row[nattrs])
			}
		}
	}
	return rel, nil
}

// WriteCSV writes the relation as CSV with a trailing "weight" column.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	header := append(append([]string(nil), r.Attrs...), "weight")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(r.Attrs)+1)
	for i, t := range r.Tuples {
		for j, v := range t {
			row[j] = strconv.FormatInt(v, 10)
		}
		row[len(r.Attrs)] = strconv.FormatFloat(r.Weights[i], 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
