// Command deflection-bench regenerates the paper's evaluation: Table I,
// Table II, Figs. 7-11, the co-location accuracy experiment and the
// loader/verifier micro-benchmarks.
//
// Usage:
//
//	deflection-bench -exp all
//	deflection-bench -exp table2 -quick
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

func main() {
	os.Exit(run())
}

func run() int {
	var (
		quick   = flag.Bool("quick", false, "smaller workloads (smoke run)")
		jsonDir = flag.String("json-dir", "", "append each experiment's result to <dir>/BENCH_<exp>.json trajectory files (empty = off)")
	)
	// experiments in the order -exp all runs them.
	experiments := []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"table1", func() (fmt.Stringer, error) { return bench.TableI() }},
		{"table2", func() (fmt.Stringer, error) { return bench.TableII(bench.Table2Options{Quick: *quick}) }},
		{"fig7", func() (fmt.Stringer, error) { return bench.Fig7(quickOr(*quick, []int64{60, 120}, nil)) }},
		{"fig8", func() (fmt.Stringer, error) { return bench.Fig8(quickOr(*quick, []int64{1000, 10000}, nil)) }},
		{"fig9", func() (fmt.Stringer, error) { return bench.Fig9(quickOr(*quick, []int64{500, 2000}, nil)) }},
		{"fig10", func() (fmt.Stringer, error) {
			return bench.Fig10(nil, 0, quickOr(*quick, 2*time.Second, 10*time.Second))
		}},
		{"fig11", func() (fmt.Stringer, error) { return bench.Fig11(nil) }},
		{"coloc", func() (fmt.Stringer, error) { return bench.Coloc(quickOr(*quick, 50_000, 1_000_000)), nil }},
		{"micro", func() (fmt.Stringer, error) { return bench.Micro() }},
		{"cfa", func() (fmt.Stringer, error) { return bench.PassCost("cfa", *quick) }},
		{"taint", func() (fmt.Stringer, error) { return bench.PassCost("taint", *quick) }},
		{"order", func() (fmt.Stringer, error) { return bench.PassCost("order", *quick) }},
		{"cache", func() (fmt.Stringer, error) { return bench.CacheBench(*quick) }},
		{"obs", func() (fmt.Stringer, error) { return bench.ObsOverhead(*quick) }},
		{"tenant", func() (fmt.Stringer, error) { return bench.TenantOverhead(*quick) }},
		{"ablation-annot", func() (fmt.Stringer, error) { return bench.AnnotCostAblation(*quick) }},
		{"ablation-q", func() (fmt.Stringer, error) { return bench.QSweep(nil, *quick) }},
	}
	names := make([]string, 0, len(experiments))
	for _, e := range experiments {
		names = append(names, e.name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	flag.Parse()

	runOne := func(name string) int {
		i := slices.Index(names, name)
		if i < 0 {
			fmt.Fprintf(os.Stderr, "deflection-bench: unknown experiment %q\n", name)
			return 2
		}
		start := time.Now()
		res, err := experiments[i].run()
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
