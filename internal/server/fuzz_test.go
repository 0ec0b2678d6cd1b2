package server

// FuzzParseJSONTuples drives arbitrary bytes through the JSON request
// bodies that reach the engine: parseJSONTuples with an inferred arity
// (dataset upload) and readPatch's JSON branch against a dataset of
// arity 2 (PATCH). Beyond not panicking, a body is either refused or
// yields tuples of the declared arity whose every cell decodes: a plain
// integer below the dictionary code space, or a code the dictionary
// assigned.
//
//	go test -fuzz FuzzParseJSONTuples -fuzztime 30s ./internal/server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/relation"
)

func FuzzParseJSONTuples(f *testing.F) {
	for _, seed := range []string{
		`{"append": [["x", 2]], "append_weights": [0.5], "delete": [[3, "y"]]}`,
		`{"append": [[]]}`,                                // empty tuple
		`{"append": [[1, 2], [1, 2, 3]]}`,                 // mixed arity
		`{"append": [[1099511627776, 1]]}`,                // integer ≥ DictBase
		`{"append": [[1.5, 2]]}`,                          // float cell
		`{"append": [[[1], 2]]}`,                          // nested array
		`{"append": [[1e400, 2]]}`,                        // cell beyond float64
		`{"append": [[1, 2]], "append_weights": [1e400]}`, // weight beyond float64
		`{"append": [[1, 2]], "append": [["a", "b"]]}`,    // duplicate keys
		`{"delete": [[null, true]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		check := func(label string, tuples []relation.Tuple, arity int, dict *relation.Dictionary) {
			for i, tp := range tuples {
				if len(tp) != arity {
					t.Fatalf("%s tuple %d has arity %d, want %d", label, i, len(tp), arity)
				}
				for j, v := range tp {
					if _, ok := dict.Decode(v); !ok && v >= relation.DictBase {
						t.Fatalf("%s tuple %d cell %d: %d is in the code space but not a code", label, i, j, v)
					}
				}
			}
		}

		var patch datasetPatch
		if json.Unmarshal(body, &patch) == nil {
			local := relation.NewDictionary()
			tuples, arity, err := parseJSONTuples(patch.Append, -1, local)
			if err == nil {
				if len(tuples) > 0 && arity <= 0 {
					t.Fatalf("inferred arity %d from %d tuples", arity, len(tuples))
				}
				check("upload", tuples, arity, local)
			}
		}

		s := &Server{dict: relation.NewDictionary()}
		req := httptest.NewRequest("PATCH", "/v1/datasets/fz", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		appendT, appendW, deleteT, err := s.readPatch(&dataset{name: "fz", arity: 2}, req)
		if err != nil {
			return
		}
		check("append", appendT, 2, s.dict)
		check("delete", deleteT, 2, s.dict)
		if len(appendW) != len(appendT) {
			t.Fatalf("%d append rows but %d weights", len(appendT), len(appendW))
		}
	})
}

// checkNDJSONRow compares appendRow with encoding/json on the tuple
// (v, str, v) and weight w. str enters the way every string does, through
// mergeDict, which assigns its code and quotes it; the reference maps
// each value by a dictionary lookup — a code the dictionary assigned is
// its string, any other value (code space included) its integer — and
// encodes topkLine. A weight encoding/json refuses must take appendRow's
// error path and leave the buffer as it was.
func checkNDJSONRow(t *testing.T, v int64, str string, w float64) {
	t.Helper()
	s := &Server{dict: relation.NewDictionary()}
	local := relation.NewDictionary()
	code := relation.Tuple{local.Code(str)}
	s.mergeDict(local, []relation.Tuple{code})
	tuple := relation.Tuple{v, code[0], v}
	cells := make([]any, len(tuple))
	for i, c := range tuple {
		if d, ok := s.dict.Decode(c); ok {
			cells[i] = d
		} else {
			cells[i] = c
		}
	}
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(topkLine{Tuple: cells, Weight: &w})
	got, err := appendRow([]byte("x"), tuple, w, s.quoted)
	switch {
	case wantErr != nil:
		if err == nil || !strings.Contains(err.Error(), "has no JSON encoding") || string(got) != "x" {
			t.Fatalf("weight %v: appendRow = %q, %v; encoding/json refuses it (%v)", w, got, err, wantErr)
		}
	case err != nil:
		t.Fatalf("(%d, %q, %v): appendRow failed: %v", v, str, w, err)
	case !bytes.Equal(got[1:], want.Bytes()):
		t.Fatalf("(%d, %q, %v):\nappendRow     %s\nencoding/json %s", v, str, w, got[1:], want.Bytes())
	}
}

var (
	ndjsonInts    = []int64{math.MinInt64, math.MaxInt64, int64(relation.DictBase - 1), int64(relation.DictBase), 0, -7}
	ndjsonStrings = []string{
		"", "plain", "<>&", `"`, `\`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"\u2028\u2029", "\xff\xfe", "a\xc3", "é日本",
	}
	ndjsonWeights = []float64{
		0, math.Copysign(0, -1), 5e-324, 9.99e-7, 1e-6, 1e20, 1e21,
		math.MaxFloat64, -1e-7, 1.5, -123456.789, 1e308,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
)

// TestNDJSONRowBytes: every combination of the edge values above
// encodes to encoding/json's exact bytes, and every non-finite weight is
// refused.
func TestNDJSONRowBytes(t *testing.T) {
	for _, v := range ndjsonInts {
		for _, str := range ndjsonStrings {
			for _, w := range ndjsonWeights {
				checkNDJSONRow(t, v, str, w)
			}
		}
	}
}

// FuzzNDJSONRow widens TestNDJSONRowBytes to arbitrary values.
//
//	go test -fuzz FuzzNDJSONRow -fuzztime 30s ./internal/server
func FuzzNDJSONRow(f *testing.F) {
	for i, w := range ndjsonWeights {
		f.Add(ndjsonInts[i%len(ndjsonInts)], ndjsonStrings[i%len(ndjsonStrings)], w)
	}
	f.Fuzz(checkNDJSONRow)
}
