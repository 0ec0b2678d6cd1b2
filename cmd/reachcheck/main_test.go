package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	for sym, want := range map[string]string{
		"repro.Compile":                                                          "repro.Compile",
		"repro.(*Prepared).Run.func1":                                            "repro.(*Prepared).Run",
		"repro/internal/core.structFactory.func3.1":                              "repro/internal/core.structFactory",
		"repro/internal/catalog.(*CostModel).Heavy-fm":                           "repro/internal/catalog.(*CostModel).Heavy",
		"repro.Compile.deferwrap1":                                               "repro.Compile",
		"repro/internal/decomp.(*Shape).b.func1.gowrap2":                         "repro/internal/decomp.(*Shape).b",
		"repro/internal/x.F-range1":                                              "repro/internal/x.F",
		"repro.(*onceCache[go.shape.*uint8]).get.func1":                          "repro.(*onceCache).get",
		"repro/internal/heap.New[go.shape.struct { a []int; b map[string]int }]": "repro/internal/heap.New",
		"type:.eq.repro/internal/x.T":                                            "type:.eq.repro/internal/x.T",
	} {
		if got := normalize(sym); got != want {
			t.Errorf("normalize(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestSymbolOf checks that a declaration is named as normalize names
// the text symbols the compiler emits for it and for its closures.
func TestSymbolOf(t *testing.T) {
	src := `package p
func F() { _ = func() {} }
func (v *T) Ptr() {}
func (v T) Val() {}
func G[X any]() {}
func (v *L[X, Y]) M() {}
func (v L[X, Y]) N() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, symbolOf("m/internal/p", d.(*ast.FuncDecl)))
	}
	want := []string{
		normalize("m/internal/p.F.func1"),
		normalize("m/internal/p.(*T).Ptr"),
		normalize("m/internal/p.T.Val-fm"),
		normalize("m/internal/p.G[go.shape.int]"),
		normalize("m/internal/p.(*L[go.shape.int,go.shape.string]).M"),
		normalize("m/internal/p.L[go.shape.int,go.shape.string].N.deferwrap1"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("symbolOf:\n got %q\nwant %q", got, want)
	}
}

// TestFixture runs the whole check on testdata/fixture with a canned
// nm listing in place of built binaries, and shows both ways to fail:
// an unreached function the keep-list does not name, and keep-list
// entries that are stale because a binary links them or they are gone.
func TestFixture(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	module, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	decls, err := declared(root, module)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := os.ReadFile(filepath.Join(root, "nm.txt"))
	if err != nil {
		t.Fatal(err)
	}
	linked := make(map[string]bool)
	parseNM(nm, linked)
	data, err := os.ReadFile(filepath.Join(root, "keep.txt"))
	if err != nil {
		t.Fatal(err)
	}
	keep, err := readKeep(string(data))
	if err != nil {
		t.Fatal(err)
	}
	problems, unreached := check(decls, linked, keep)
	want := []string{
		"fix.go:7: fix.dead is linked by no binary and not on the keep-list",
		"keep-list entry fix.Gone is stale: no such function",
		"keep-list entry fix.Used is stale: a binary links it",
	}
	if len(decls) != 7 || unreached != 2 || !reflect.DeepEqual(problems, want) {
		t.Fatalf("%d declared, %d unreached, problems:\n%s", len(decls), unreached, strings.Join(problems, "\n"))
	}
}

func TestReadKeepRejectsEntryWithoutReason(t *testing.T) {
	if _, err := readKeep("# comment\n\nrepro.F\n"); err == nil {
		t.Fatal("an entry without a reason was accepted")
	}
	if _, err := readKeep("repro.F a\nrepro.F b\n"); err == nil {
		t.Fatal("a duplicate entry was accepted")
	}
}

// TestKeepListNamesDeclaredFunctions checks the committed keep-list
// without building anything: it parses, and every entry is a function
// of the module. Only the full run can tell whether a binary links one.
func TestKeepListNamesDeclaredFunctions(t *testing.T) {
	data, err := os.ReadFile("keep.txt")
	if err != nil {
		t.Fatal(err)
	}
	keep, err := readKeep(string(data))
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("..", "..")
	decls, err := declared(root, "repro")
	if err != nil {
		t.Fatal(err)
	}
	for sym := range keep {
		if decls[sym] == "" {
			t.Errorf("keep-list entry %s names no function of the module", sym)
		}
	}
}
