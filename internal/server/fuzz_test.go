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
	"net/http/httptest"
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
