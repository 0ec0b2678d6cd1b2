// Command topkjoin runs a ranked (top-k) join query over CSV files —
// the library's algorithms on user data rather than synthetic
// workloads.
//
// Each -rel flag declares one atom as NAME:VAR1,VAR2,...:FILE.csv; the
// CSV's header row is ignored for naming (the VARs bind its columns in
// order) and its last column is read as the tuple weight. Non-numeric
// values are dictionary-encoded consistently across files and decoded
// back in the output.
//
//	topkjoin -k 5 -rank sum -variant Lazy \
//	    -rel 'Legs1:Src,Hub:legs1.csv' \
//	    -rel 'Legs2:Hub,Dst:legs2.csv'
//
// Every full conjunctive query shape is supported: acyclic queries and
// cycles of any length (in either edge orientation) use their canonical
// plans, and all other cyclic shapes — cliques, bowties, fused
// triangles, queries with higher-arity atoms — compile through the
// generic hypertree-decomposition planner (see the repro package
// documentation for the decomposition used per shape).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/ranking"
	"repro/internal/relation"
)

type relFlag []string

func (r *relFlag) String() string { return strings.Join(*r, " ") }
func (r *relFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topkjoin:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("topkjoin", flag.ContinueOnError)
	var rels relFlag
	fs.Var(&rels, "rel", "atom spec NAME:VAR1,VAR2,...:FILE.csv (repeatable)")
	k := fs.Int("k", 10, "number of results (0 = all)")
	rankNames := make([]string, len(ranking.All))
	for i, a := range ranking.All {
		rankNames[i] = a.Name()
	}
	rank := fs.String("rank", ranking.SumCost.Name(), "ranking: "+strings.Join(rankNames, ", "))
	variant := fs.String("variant", "Lazy", "algorithm: Eager, Lazy, Quick, All, Take2, Rec, Batch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(rels) == 0 {
		return fmt.Errorf("at least one -rel is required")
	}

	agg, err := ranking.Parse(*rank)
	if err != nil {
		return err
	}

	dict := relation.NewDictionary()
	q := repro.NewQuery()
	// varTypes tracks, per query variable, whether any bound column is
	// numeric and whether any is dictionary-encoded; a variable with
	// both never joins (columns are typed per file), so warn.
	type colTypes struct{ numeric, dict bool }
	varTypes := map[string]*colTypes{}
	for _, spec := range rels {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) != 3 {
			return fmt.Errorf("bad -rel %q, want NAME:VARS:FILE", spec)
		}
		name, varSpec, file := parts[0], parts[1], parts[2]
		vars := strings.Split(varSpec, ",")
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		rel, err := relation.ReadCSV(f, name, true, dict)
		f.Close()
		if err != nil {
			return err
		}
		if rel.Arity() != len(vars) {
			return fmt.Errorf("relation %s: %d CSV value columns but %d variables", name, rel.Arity(), len(vars))
		}
		for c, v := range vars {
			t := varTypes[v]
			if t == nil {
				t = &colTypes{}
				varTypes[v] = t
			}
			for _, tp := range rel.Tuples {
				if tp[c] >= relation.DictBase {
					t.dict = true
				} else {
					t.numeric = true
				}
				break // whole-column typing: the first row decides
			}
		}
		q.Rel(name, vars, rel.Tuples, rel.Weights)
	}
	for v, t := range varTypes {
		if t.numeric && t.dict {
			fmt.Fprintf(os.Stderr, "topkjoin: warning: variable %s binds a numeric column in one file and a string column in another; columns are typed per file, so these values never join\n", v)
		}
	}

	p, err := repro.Compile(q)
	if err != nil {
		return err
	}
	it, err := p.Run(
		repro.WithRanking(agg),
		repro.WithVariant(repro.Variant(*variant)),
		repro.WithK(*k),
	)
	if err != nil {
		return err
	}
	defer it.Close()
	fmt.Fprintf(out, "rank\t%s\tweight\n", strings.Join(p.OutAttrs(), "\t"))
	count := 0
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		count++
		cells := make([]string, len(r.Tuple))
		for i, v := range r.Tuple {
			if s := dict.String(v); s != "" {
				cells[i] = s
			} else {
				cells[i] = fmt.Sprintf("%d", v)
			}
		}
		fmt.Fprintf(out, "%d\t%s\t%g\n", count, strings.Join(cells, "\t"), r.Weight)
	}
	if err := it.Err(); err != nil {
		return err
	}
	if count == 0 {
		fmt.Fprintln(out, "(no results)")
	}
	return nil
}
