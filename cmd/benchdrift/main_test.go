package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGate runs the gate over base/head document pairs in testdata/,
// each with the text bench -compare printed for it: a declared change
// that matches passes, and every other difference between the moved
// rows and the declared ones fails.
func TestGate(t *testing.T) {
	const (
		drifted = "cold_prepare catalog.est_error.chorded5 14.080753194039024 11.079318857727106\n"
		added   = "cold_prepare sample.exhausted.chorded5 new 1\n"
	)
	cases := []struct {
		name, pair, declared string
		pass                 bool
	}{
		{"nothing moved, nothing declared", "same", "", true},
		{"declared drift that matches", "drift", "# one row\n" + drifted, true},
		{"declared new row that matches", "added", added, true},
		{"undeclared drift", "drift", "", false},
		{"declared but absent", "same", drifted, false},
		{"wrong head value", "drift", "cold_prepare catalog.est_error.chorded5 14.080753194039024 11.0793\n", false},
		{"wrong base value", "drift", "cold_prepare catalog.est_error.chorded5 14.08 11.079318857727106\n", false},
		{"undeclared new row", "added", "", false},
		{"new row declared with a base value", "added", "cold_prepare sample.exhausted.chorded5 0 1\n", false},
		{"drift declared beside a row that did not move", "drift", drifted + added, false},
		{"removed row", "removed", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, head := "testdata/base.json", "testdata/head_"+tc.pair+".json"
			if tc.pair == "removed" {
				base, head = "testdata/head_added.json", "testdata/base.json"
			}
			declared := filepath.Join(t.TempDir(), "bench-drift.txt")
			if err := os.WriteFile(declared, []byte(tc.declared), 0o644); err != nil {
				t.Fatal(err)
			}
			problems, err := run("testdata/compare_"+tc.pair+".txt", base, head, declared)
			if err != nil {
				t.Fatal(err)
			}
			if pass := len(problems) == 0; pass != tc.pass {
				t.Fatalf("pass = %v, want %v; problems: %q", pass, tc.pass, problems)
			}
		})
	}
}

// TestMalformedDeclarations: a line the gate cannot read is an error,
// not a silently ignored declaration.
func TestMalformedDeclarations(t *testing.T) {
	for _, line := range []string{
		"cold_prepare catalog.est_error.chorded5 11.08\n",
		"cold_prepare catalog.est_error.chorded5 14.08 eleven\n",
		"cold_prepare catalog.est_error.chorded5 new 1\ncold_prepare catalog.est_error.chorded5 new 2\n",
	} {
		path := filepath.Join(t.TempDir(), "bench-drift.txt")
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadDeclarations(path); err == nil {
			t.Fatalf("%q: no error", line)
		}
	}
}
