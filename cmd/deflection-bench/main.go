// Command deflection-bench regenerates the paper's evaluation and the
// reproduction's own cost measurements, one experiment at a time or all in
// order: Table I, Table II, Figs. 7-11, the §IV-C co-location accuracy
// experiment, the §VI-A loader/verifier turnaround (micro), the cfa, taint
// and order pass costs, tenant admission overhead and the two ablations
// (annotation cost model, P6 check interval q). EXPERIMENTS.md has one
// section per experiment.
//
// Usage:
//
//	deflection-bench -exp all
//	deflection-bench -exp table2 -quick
//	deflection-bench -exp fig7 -json-dir .
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"deflection/internal/bench"
)

// experiment is one -exp target; quick selects its smoke-sized workload.
type experiment struct {
	name string
	run  func(quick bool) (fmt.Stringer, error)
}

// experiments in the order -exp all runs them.
var experiments = []experiment{
	{"table1", func(bool) (fmt.Stringer, error) { return bench.TableI() }},
	{"table2", func(quick bool) (fmt.Stringer, error) { return bench.TableII(quick) }},
	{"fig7", func(quick bool) (fmt.Stringer, error) { return bench.Fig7(quickOr(quick, []int64{60, 120}, nil)) }},
	{"fig8", func(quick bool) (fmt.Stringer, error) { return bench.Fig8(quickOr(quick, []int64{1000, 10000}, nil)) }},
	{"fig9", func(quick bool) (fmt.Stringer, error) { return bench.Fig9(quickOr(quick, []int64{500, 2000}, nil)) }},
	{"fig10", func(quick bool) (fmt.Stringer, error) {
		return bench.Fig10(nil, 0, quickOr(quick, 2*time.Second, 10*time.Second))
	}},
	{"fig11", func(bool) (fmt.Stringer, error) { return bench.Fig11(nil) }},
	{"coloc", func(quick bool) (fmt.Stringer, error) { return bench.Coloc(quickOr(quick, 50_000, 1_000_000)), nil }},
	{"micro", func(bool) (fmt.Stringer, error) { return bench.Micro() }},
	{"cfa", func(quick bool) (fmt.Stringer, error) { return bench.PassCost("cfa", quick) }},
	{"taint", func(quick bool) (fmt.Stringer, error) { return bench.PassCost("taint", quick) }},
	{"order", func(quick bool) (fmt.Stringer, error) { return bench.PassCost("order", quick) }},
	{"tenant", func(quick bool) (fmt.Stringer, error) { return bench.TenantOverhead(quick) }},
	{"ablation-annot", func(quick bool) (fmt.Stringer, error) { return bench.AnnotCostAblation(quick) }},
	{"ablation-q", func(quick bool) (fmt.Stringer, error) { return bench.QSweep(nil, quick) }},
}

func main() {
	os.Exit(run())
}

func run() int {
	names := make([]string, 0, len(experiments))
	for _, e := range experiments {
		names = append(names, e.name)
	}
	var (
		quick   = flag.Bool("quick", false, "smaller workloads (smoke run)")
		jsonDir = flag.String("json-dir", "", "append each experiment's result to <dir>/BENCH_<exp>.json trajectory files (empty = off)")
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	)
	flag.Parse()

	runOne := func(name string) int {
		i := slices.Index(names, name)
		if i < 0 {
			fmt.Fprintf(os.Stderr, "deflection-bench: unknown experiment %q\n", name)
			return 2
		}
		start := time.Now()
		res, err := experiments[i].run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deflection-bench: %s: %v\n", name, err)
			return 1
		}
		fmt.Println(res)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		if *jsonDir != "" {
			path, err := bench.AppendRecord(*jsonDir, bench.NewRecord(name, *quick, time.Since(start), res.String()))
			if err != nil {
				fmt.Fprintf(os.Stderr, "deflection-bench: recording trajectory: %v\n", err)
				return 1
			}
			fmt.Printf("[trajectory appended to %s]\n\n", path)
		}
		return 0
	}

	if *exp == "all" {
		for _, name := range names {
			if code := runOne(name); code != 0 {
				return code
			}
		}
		return 0
	}
	return runOne(*exp)
}

func quickOr[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}
