// Command benchdrift is the count gate of CI's bench job. It passes when
// the exact per-layer rows that moved or appeared between a base and a
// head run of the benchmark are exactly the rows the change declares,
// value for value:
//
//	bash bench/run.sh -compare base.json head.json > compare.txt || true
//	go run ./cmd/benchdrift -compare compare.txt -base base.json -head head.json
//
// The rows come from the verdict column of -compare's text (count-drift
// or missing); their values come from the per_layer maps of the --out
// documents, never from the %g-rounded text. -base and -head each take
// one document or a comma-separated list of them.
//
// The declarations file (-declared, by default .github/bench-drift.txt)
// holds one row per line, '#' starting a comment:
//
//	workload metric base head
//
// with base written `new` for a row the base run lacks. Values are
// written as the documents hold them, so they compare exactly. The
// gate fails on a row that moved or appeared undeclared, on a declared
// row that did not, on a declared value the run did not measure, and on
// a row the head lacks (a removal cannot be declared). Since the next
// change's base already carries the new values, a declaration holds for
// one change only and the file starts each change empty.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

func main() {
	var (
		compare  = flag.String("compare", "", "text printed by bench -compare")
		base     = flag.String("base", "", "--out documents of the base run, comma-separated")
		head     = flag.String("head", "", "--out documents of the head run, comma-separated")
		declared = flag.String("declared", ".github/bench-drift.txt", "declared rows")
	)
	flag.Parse()
	problems, err := run(*compare, *base, *head, *declared)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdrift:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchdrift:", p)
		}
		os.Exit(1)
	}
	fmt.Println("benchdrift: the exact rows that moved are the declared ones")
}

// row names one per-layer metric of one workload.
type row struct{ workload, metric string }

func (r row) String() string { return r.workload + " " + r.metric }

// declaration is one line of the declarations file.
type declaration struct {
	added      bool // base written `new`
	base, head float64
}

// run reads the four inputs and returns one line per difference between
// the rows -compare flagged and the declared ones; none means the gate
// passes.
func run(comparePath, basePaths, headPaths, declaredPath string) ([]string, error) {
	text, err := os.ReadFile(comparePath)
	if err != nil {
		return nil, err
	}
	base, err := loadValues(basePaths)
	if err != nil {
		return nil, err
	}
	head, err := loadValues(headPaths)
	if err != nil {
		return nil, err
	}
	decls, err := loadDeclarations(declaredPath)
	if err != nil {
		return nil, err
	}
	return check(flaggedRows(string(text)), base, head, decls), nil
}

// flaggedRows returns the rows whose verdict in -compare's text is
// count-drift or missing, in the order printed.
func flaggedRows(text string) []row {
	var rows []row
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if v := f[len(f)-1]; v == "count-drift" || v == "missing" {
			rows = append(rows, row{f[0], f[1]})
		}
	}
	return rows
}

// loadValues collects every per-layer value of the documents, keyed by
// row; a row the run measured in several documents has several values.
func loadValues(paths string) (map[row][]float64, error) {
	vals := map[row][]float64{}
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var docs []struct {
			Workload string `json:"workload"`
			Layer    map[string]struct {
				Median float64 `json:"median"`
			} `json:"per_layer"`
		}
		if err := json.Unmarshal(b, &docs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, d := range docs {
			for m, s := range d.Layer {
				r := row{d.Workload, m}
				vals[r] = append(vals[r], s.Median)
			}
		}
	}
	return vals, nil
}

func loadDeclarations(path string) (map[row]declaration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	decls := map[row]declaration{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		bad := func(why string) error { return fmt.Errorf("%s:%d: %s", path, n, why) }
		if len(fields) != 4 {
			return nil, bad("want: workload metric base head")
		}
		r := row{fields[0], fields[1]}
		if _, dup := decls[r]; dup {
			return nil, bad(r.String() + " is declared twice")
		}
		var d declaration
		if d.head, err = strconv.ParseFloat(fields[3], 64); err != nil {
			return nil, bad(err.Error())
		}
		if d.added = fields[2] == "new"; !d.added {
			if d.base, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, bad(err.Error())
			}
		}
		decls[r] = d
	}
	return decls, sc.Err()
}

// check compares the flagged rows, valued from the documents, with the
// declarations.
func check(flagged []row, base, head map[row][]float64, decls map[row]declaration) []string {
	var problems []string
	seen := map[row]bool{}
	for _, r := range flagged {
		if seen[r] {
			continue
		}
		seen[r] = true
		b, inBase, errB := exact(r, base[r])
		h, inHead, errH := exact(r, head[r])
		if err := cmp.Or(errB, errH); err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if !inHead {
			if inBase {
				problems = append(problems, fmt.Sprintf("%s: the head run lacks it, and a removed row cannot be declared", r))
			} else {
				problems = append(problems, fmt.Sprintf("%s: in neither run's per_layer map, so it cannot be declared", r))
			}
			continue
		}
		got := declaration{added: !inBase, base: b, head: h}
		d, ok := decls[r]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s moved undeclared; declaring it reads: %s", r, got.line(r)))
		case d != got:
			problems = append(problems, fmt.Sprintf("%s is declared as %q but measured as %q", r, d.line(r), got.line(r)))
		}
	}
	var stale []string
	for r, d := range decls {
		if !seen[r] {
			stale = append(stale, fmt.Sprintf("%s is declared (%q) but did not move", r, d.line(r)))
		}
	}
	slices.Sort(stale)
	return append(problems, stale...)
}

// exact returns a row's value on one side: absent when the side never
// measured it, an error when its documents disagree, which an exact row
// never does.
func exact(r row, vals []float64) (v float64, ok bool, err error) {
	if len(vals) == 0 {
		return 0, false, nil
	}
	for _, x := range vals[1:] {
		if x != vals[0] {
			return 0, false, fmt.Errorf("%s: the documents of one run disagree (%v), so it is not an exact row", r, vals)
		}
	}
	return vals[0], true, nil
}

// line renders a declaration as the declarations file writes it.
func (d declaration) line(r row) string {
	base := "new"
	if !d.added {
		base = strconv.FormatFloat(d.base, 'g', -1, 64)
	}
	return fmt.Sprintf("%s %s %s", r, base, strconv.FormatFloat(d.head, 'g', -1, 64))
}
