// Command reachcheck enforces the rule of docs/ARCHITECTURE.md, "What
// stays in the module": a non-test function of package repro or of
// internal/** stays only if a binary links it, or if the keep-list
// (cmd/reachcheck/keep.txt) gives the one-line reason it stays anyway.
//
//	go run ./cmd/reachcheck   # from the module root
//
// It builds every cmd/*, every examples/* and the bench/ binary with
// inlining off (-gcflags=all=-l) into a temporary directory, lists
// their text symbols with go tool nm, and compares them with the
// FuncDecls of the module's non-test files. It exits 1 on a function
// no binary links that the keep-list does not name, and on a keep-list
// entry that a binary now links or that no longer exists; 2 when it
// cannot build, list or parse.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// keepList is the keep-list's path from the module root.
const keepList = "cmd/reachcheck/keep.txt"

func main() {
	data, err := os.ReadFile(keepList)
	if err != nil {
		fail(err)
	}
	keep, err := readKeep(string(data))
	if err != nil {
		fail(err)
	}
	module, err := modulePath(".")
	if err != nil {
		fail(err)
	}
	decls, err := declared(".", module)
	if err != nil {
		fail(err)
	}
	linked, err := linkedSymbols()
	if err != nil {
		fail(err)
	}
	problems, unreached := check(decls, linked, keep)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "reachcheck:", p)
	}
	fmt.Printf("reachcheck: %d functions declared, %d reached by no binary, %d problems\n",
		len(decls), unreached, len(problems))
	if len(problems) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reachcheck:", err)
	os.Exit(2)
}

// check compares the declared functions (symbol → file:line) with the
// linked symbols and the keep-list (symbol → reason). It returns one
// line per problem, sorted, and the number of unreached functions.
func check(decls map[string]string, linked map[string]bool, keep map[string]string) ([]string, int) {
	var problems []string
	unreached := 0
	for sym, pos := range decls {
		if linked[sym] {
			continue
		}
		unreached++
		if keep[sym] == "" {
			problems = append(problems, fmt.Sprintf("%s: %s is linked by no binary and not on the keep-list", pos, sym))
		}
	}
	for sym := range keep {
		switch _, ok := decls[sym]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("keep-list entry %s is stale: no such function", sym))
		case linked[sym]:
			problems = append(problems, fmt.Sprintf("keep-list entry %s is stale: a binary links it", sym))
		}
	}
	sort.Strings(problems)
	return problems, unreached
}

// readKeep parses the keep-list: one entry per line, a symbol and then
// the reason it stays; blank lines and lines starting with # are
// skipped.
func readKeep(data string) (map[string]string, error) {
	keep := make(map[string]string)
	for n, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case reason == "":
			return nil, fmt.Errorf("keep-list line %d: %s has no reason", n+1, sym)
		case keep[sym] != "":
			return nil, fmt.Errorf("keep-list line %d: %s is listed twice", n+1, sym)
		}
		keep[sym] = reason
	}
	return keep, nil
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", root)
}

// declared returns every function and method declared in the non-test
// files of the root package and of internal/**, as symbol → file:line.
func declared(root, module string) (map[string]string, error) {
	decls := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			inModule := rel == "." || rel == "internal" || strings.HasPrefix(rel, "internal/")
			if !inModule || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "_" {
				decls[symbolOf(pkg, fd)] = fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
			}
		}
		return nil
	})
	return decls, err
}

// symbolOf names a FuncDecl the way the linker names its text symbol,
// after normalize: pkg.F, pkg.T.M for a value receiver, pkg.(*T).M for
// a pointer receiver, with a generic receiver's type parameters
// dropped.
func symbolOf(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	t, ptr := fd.Recv.List[0].Type, false
	if star, ok := t.(*ast.StarExpr); ok {
		t, ptr = star.X, true
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := ""
	if id, ok := t.(*ast.Ident); ok {
		name = id.Name
	}
	if ptr {
		return pkg + ".(*" + name + ")." + fd.Name.Name
	}
	return pkg + "." + name + "." + fd.Name.Name
}

// wrapperSuffix matches what the compiler appends to the symbol of the
// function a closure, method value, defer, go statement or range-over-
// func body was declared in.
var wrapperSuffix = regexp.MustCompile(`(\.func\d+|\.deferwrap\d+|\.gowrap\d+|\.\d+|-fm|-range\d+)+$`)

// normalize maps a text symbol to the name of the declaration it
// belongs to: generic instantiation brackets are dropped, as are the
// suffixes of closures and compiler wrappers.
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return wrapperSuffix.ReplaceAllString(b.String(), "")
}

// parseNM collects the normalised text symbols of go tool nm output.
func parseNM(out []byte, into map[string]bool) {
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			into[normalize(f[2])] = true
		}
	}
}

// linkedSymbols builds every binary into a temporary directory and
// returns the union of their normalised text symbols.
func linkedSymbols() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "reachcheck-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	build := []string{"build", "-gcflags=all=-l", "-buildvcs=false", "-o"}
	if _, err := goCmd(".", append(build, dir+string(filepath.Separator), "./cmd/...", "./examples/...")...); err != nil {
		return nil, err
	}
	if _, err := goCmd("bench", append(build, filepath.Join(dir, "bench"), ".")...); err != nil {
		return nil, err
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		out, err := goCmd(".", "tool", "nm", filepath.Join(dir, bin.Name()))
		if err != nil {
			return nil, err
		}
		parseNM(out, linked)
	}
	return linked, nil
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var stderr []byte
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			stderr = ee.Stderr
		}
		return nil, fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr)
	}
	return out, nil
}
