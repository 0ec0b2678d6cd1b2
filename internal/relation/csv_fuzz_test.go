package relation

// FuzzReadCSV drives arbitrary bytes through the CSV ingestion path —
// the one parser in the engine that consumes wire data directly (the
// serving layer's dataset uploads). Beyond not panicking, every
// accepted parse must produce a structurally sound relation, and
// all-numeric relations must survive a WriteCSV→ReadCSV round trip
// unchanged — the persistence contract the CLI tools rely on.
//
//	go test -fuzz FuzzReadCSV -fuzztime 30s ./internal/relation

import (
	"bytes"
	"math"
	"testing"
)

func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b,weight\n1,2,0.5\n3,4,1\n"), true, false)
	f.Add([]byte("a,b\n1,2\n"), false, false)
	f.Add([]byte("city,pop\nparis,7\nnice,x\n"), false, true)
	f.Add([]byte("a\n\"unterminated\n"), true, true)
	f.Add([]byte("a,weight\n1099511627776,1\n"), true, true) // 2^40 collides with dict codes
	f.Add([]byte("a,weight\n1,NaN\n2,-Inf\n"), true, false)  // NaN has no rank; ±Inf do
	f.Fuzz(func(t *testing.T, data []byte, weightCol, useDict bool) {
		var dict *Dictionary
		if useDict {
			dict = NewDictionary()
		}
		rel, err := ReadCSV(bytes.NewReader(data), "fz", weightCol, dict)
		if err != nil {
			return
		}
		if len(rel.Tuples) != len(rel.Weights) {
			t.Fatalf("%d tuples but %d weights", len(rel.Tuples), len(rel.Weights))
		}
		for i, tp := range rel.Tuples {
			if len(tp) != len(rel.Attrs) {
				t.Fatalf("tuple %d has %d values, relation has %d attributes", i, len(tp), len(rel.Attrs))
			}
			if math.IsNaN(rel.Weights[i]) {
				t.Fatalf("tuple %d was accepted with a NaN weight", i)
			}
		}
		if dict != nil {
			return // encoded values round-trip through the dictionary, not CSV
		}
		// No dictionary means every column parsed as integers; writing the
		// relation back out and re-reading it must reproduce it exactly.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatalf("WriteCSV on accepted relation: %v", err)
		}
		back, err := ReadCSV(&buf, "fz", true, nil)
		if err != nil {
			t.Fatalf("re-read of written CSV: %v", err)
		}
		if len(back.Tuples) != len(rel.Tuples) {
			t.Fatalf("round trip changed cardinality: %d -> %d", len(rel.Tuples), len(back.Tuples))
		}
		for i := range rel.Tuples {
			if back.Weights[i] != rel.Weights[i] {
				t.Fatalf("round trip changed weight %d: %v -> %v", i, rel.Weights[i], back.Weights[i])
			}
			for j := range rel.Tuples[i] {
				if back.Tuples[i][j] != rel.Tuples[i][j] {
					t.Fatalf("round trip changed tuple %d: %v -> %v", i, rel.Tuples[i], back.Tuples[i])
				}
			}
		}
	})
}
