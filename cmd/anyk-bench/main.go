// Command anyk-bench regenerates the experiment tables of the
// reproduction (E1–E15, one function each in internal/experiments).
//
// Usage:
//
//	anyk-bench                 # run every experiment at default scale
//	anyk-bench -exp E6         # run one experiment
//	anyk-bench -exp E6 -scale small
//
// Scales: small (seconds, CI-friendly), default (tens of seconds),
// large (minutes — closest to paper-scale shapes).
//
// The tables are a report, not a regression instrument: the repo's
// benchmark — repeated, versioned, oracle-checked measurements of the
// engine and the serving layer — is bench/ (see bench/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/stats"
)

type scaleCfg struct {
	e1ns, e2ns, e3ns []int
	e4n              int
	e4ks             []int
	e5n              int
	e5ks             []int
	e6ns             []int
	e6k              int
	e7n              int
	e8ns             []int
	e8k              int
	e9ns             []int
	e9k              int
	e10n             int
	e11n             int
	e11ks            []int
	e12n             int
	e13ns            []int
	e13k             int
	e14n             int
	e15ns            []int
}

var scales = map[string]scaleCfg{
	"small": {
		e1ns: []int{200, 400, 800},
		e2ns: []int{200, 400, 800},
		e3ns: []int{500, 1000, 2000},
		e4n:  2000, e4ks: []int{1, 10, 100},
		e5n: 2000, e5ks: []int{1, 10},
		e6ns: []int{500, 1000}, e6k: 100,
		e7n:  300,
		e8ns: []int{500, 1000}, e8k: 100,
		e9ns: []int{1000, 2000}, e9k: 100,
		e10n: 400,
		e11n: 500, e11ks: []int{1, 10, 100, 1000, 10000},
		e12n:  500,
		e13ns: []int{200, 400}, e13k: 100,
		e14n:  500,
		e15ns: []int{500, 1000, 2000},
	},
	"default": {
		e1ns: []int{500, 1000, 2000, 4000},
		e2ns: []int{500, 1000, 2000, 4000},
		e3ns: []int{1000, 2000, 4000, 8000},
		e4n:  20000, e4ks: []int{1, 10, 100, 1000},
		e5n: 20000, e5ks: []int{1, 10, 100},
		e6ns: []int{1000, 2000, 4000}, e6k: 1000,
		e7n:  1000,
		e8ns: []int{1000, 2000, 4000}, e8k: 1000,
		e9ns: []int{2000, 4000, 8000}, e9k: 1000,
		e10n: 1000,
		e11n: 1000, e11ks: []int{1, 10, 100, 1000, 10000, 100000},
		e12n:  1000,
		e13ns: []int{500, 1000, 2000}, e13k: 200,
		e14n:  1000,
		e15ns: []int{1000, 2000, 4000, 8000},
	},
	"large": {
		e1ns: []int{1000, 2000, 4000, 8000, 16000},
		e2ns: []int{1000, 2000, 4000, 8000},
		e3ns: []int{2000, 4000, 8000, 16000},
		e4n:  100000, e4ks: []int{1, 10, 100, 1000},
		e5n: 100000, e5ks: []int{1, 10, 100},
		e6ns: []int{2000, 4000, 8000, 16000}, e6k: 1000,
		e7n:  3000,
		e8ns: []int{2000, 4000, 8000, 16000}, e8k: 1000,
		e9ns: []int{4000, 8000, 16000}, e9k: 1000,
		e10n: 2000,
		e11n: 2000, e11ks: []int{1, 10, 100, 1000, 10000, 100000, 1000000},
		e12n:  2000,
		e13ns: []int{1000, 2000, 4000}, e13k: 200,
		e14n:  2000,
		e15ns: []int{2000, 4000, 8000, 16000},
	},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: E1..E15 or 'all'")
	scale := flag.String("scale", "default", "workload scale: small, default, large")
	asCSV := flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
	flag.Parse()
	// Ctrl-C cancels the in-flight experiment's enumeration instead of
	// killing the process mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal has canceled ctx, unregister so a
		// second Ctrl-C kills the process the default way.
		<-ctx.Done()
		stop()
	}()
	// The experiment helpers panic on iterator errors; when the error is
	// this cancellation, exit with the conventional interrupt status
	// instead of a stack trace.
	defer func() {
		if r := recover(); r != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "anyk-bench: interrupted")
				os.Exit(130)
			}
			panic(r)
		}
	}()
	render := func(t *stats.Table) string {
		if *asCSV {
			return t.CSV()
		}
		return t.String()
	}

	cfg, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q (small, default, large)\n", *scale)
		os.Exit(2)
	}

	runners := map[string]func() *stats.Table{
		"E1":  func() *stats.Table { return experiments.E1(cfg.e1ns) },
		"E2":  func() *stats.Table { return experiments.E2(ctx, cfg.e2ns) },
		"E3":  func() *stats.Table { return experiments.E3(cfg.e3ns) },
		"E4":  func() *stats.Table { return experiments.E4(cfg.e4n, cfg.e4ks) },
		"E5":  func() *stats.Table { return experiments.E5(cfg.e5n, cfg.e5ks) },
		"E6":  func() *stats.Table { return experiments.E6(ctx, cfg.e6ns, cfg.e6k) },
		"E7":  func() *stats.Table { return experiments.E7(ctx, cfg.e7n) },
		"E8":  func() *stats.Table { return experiments.E8(ctx, cfg.e8ns, cfg.e8k) },
		"E9":  func() *stats.Table { return experiments.E9(ctx, cfg.e9ns, cfg.e9k) },
		"E10": func() *stats.Table { return experiments.E10(cfg.e10n) },
		"E11": func() *stats.Table { return experiments.E11(ctx, cfg.e11n, cfg.e11ks) },
		"E12": func() *stats.Table { return experiments.E12(ctx, cfg.e12n) },
		"E13": func() *stats.Table { return experiments.E13(ctx, cfg.e13ns, cfg.e13k) },
		"E14": func() *stats.Table { return experiments.E14(ctx, cfg.e14n) },
		"E15": func() *stats.Table { return experiments.E15(cfg.e15ns) },
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}

	want := strings.ToUpper(*exp)
	if want == "ALL" {
		for _, name := range order {
			fmt.Println(render(runners[name]()))
		}
		return
	}
	run, ok := runners[want]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (E1..E15 or all)\n", *exp)
		os.Exit(2)
	}
	fmt.Println(render(run()))
}
