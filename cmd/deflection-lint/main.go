// Command deflection-lint gates the build on TCB import hygiene: the
// trusted set declared by lint.DefaultConfig (the bootstrap runtime, the
// verification packages, the enclave model and attest, with their whole
// first-party import closure) must not reach the observability plane, the
// service plane, or the net/os standard-library trees. Exit status 1 means
// the TCB grew a forbidden dependency; the offending import chains are
// printed. On success it prints the packages it walked, one import path a
// line after the summary: the trusted set that Table I counts and make
// tcb-cover measures.
//
// With -metrics it instead lints metric-name hygiene: every literal
// Counter/Gauge/Histogram name in the repository must be lowercase
// snake_case and no name may be registered as two different metric types.
package main

import (
	"flag"
	"fmt"
	"os"

	"deflection/internal/lint"
)

func main() {
	root := flag.String("root", ".", "module root directory to lint")
	metrics := flag.Bool("metrics", false, "lint metric names instead of TCB imports")
	flag.Parse()

	if *metrics {
		rep, err := lint.CheckMetrics(*root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "deflection-lint:", err)
			os.Exit(2)
		}
		if len(rep.Findings) > 0 {
			for _, f := range rep.Findings {
				fmt.Fprintln(os.Stderr, f)
			}
			fmt.Fprintf(os.Stderr, "deflection-lint: %d metric-name violation(s)\n", len(rep.Findings))
			os.Exit(1)
		}
		fmt.Printf("deflection-lint: metric-name hygiene OK (%d literal call sites)\n", len(rep.Sites))
		return
	}

	rep, err := lint.Check(lint.DefaultConfig(*root))
	if err != nil {
		fmt.Fprintln(os.Stderr, "deflection-lint:", err)
		os.Exit(2)
	}
	if len(rep.Findings) > 0 {
		for _, f := range rep.Findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "deflection-lint: %d forbidden import(s) in the TCB\n", len(rep.Findings))
		os.Exit(1)
	}
	fmt.Printf("deflection-lint: TCB import hygiene OK (%d first-party packages)\n", len(rep.Packages))
	for _, pkg := range rep.Packages {
		fmt.Println(pkg)
	}
}
