// Command deflection-host is the bootstrap-enclave CLI: it launches an
// enclave, loads and verifies a target binary produced by deflection-gen,
// feeds it parameters and data, runs it under the selected policies, and
// reports the verification statistics and the execution outcome.
//
// Usage:
//
//	deflection-host -policies p1-p6 -param 1500 -param 2 service.dfo
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"deflection"
	"deflection/internal/cpu"
	"deflection/internal/isa"
	"deflection/internal/obj"
	"deflection/internal/obs"
	"deflection/internal/runtime"
)

// summarise converts a raw bootstrap run result to the facade's view.
func summarise(res *runtime.RunResult) *deflection.Result {
	out := &deflection.Result{
		ExitValue: res.CPU.ExitValue,
		Outputs:   res.Outputs,
		Insts:     res.CPU.Insts,
		Cycles:    res.CPU.Cycles,
		AEXCount:  res.CPU.AEXCount,
	}
	switch res.CPU.Status {
	case cpu.StatusHalt:
	case cpu.StatusTrap:
		out.Trapped = true
		out.TrapReason = res.CPU.Trap.String()
	case cpu.StatusFault:
		out.Trapped = true
		out.TrapReason = fmt.Sprintf("memory fault: %v", res.CPU.Fault)
	}
	return out
}

type intList []int64

func (l *intList) String() string { return fmt.Sprint(*l) }

func (l *intList) Set(s string) error {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var params intList
	var (
		policies = flag.String("policies", "p1-p6", "required policy set: none|p1|p1+p2|p1-p5|p1-p6|p1-p7|p1-p8|full")
		dataFile = flag.String("data", "", "file whose contents are queued as one input message")
		gas      = flag.Uint64("gas", 0, "instruction budget (0 = default)")
		aex      = flag.Uint64("aex-interval", 0, "inject an AEX every ~N instructions (0 = off)")
		paper    = flag.Bool("paper", false, "use the paper's 96MB enclave memory budget")
		verbose  = flag.Bool("v", false, "print verification statistics")
		trace    = flag.Bool("trace", false, "print the pipeline stage trace and per-policy audit trail")
		itrace   = flag.Int("itrace", 0, "print the first N executed instructions")
	)
	flag.Var(&params, "param", "8-byte integer parameter (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: deflection-host [flags] service.dfo")
		flag.PrintDefaults()
		return 2
	}
	pols, err := deflection.ParsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if _, err := obj.Unmarshal(raw); err != nil {
		fmt.Fprintf(os.Stderr, "deflection-host: malformed object: %v\n", err)
		return 1
	}

	encl, err := deflection.NewEnclave(deflection.EnclaveOptions{Policies: pols, Paper: *paper})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("enclave measurement: %x\n", encl.Measurement())

	start := time.Now()
	rep, err := encl.Bootstrap().ReceiveBinary(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deflection-host: load/verify REJECTED: %v\n", err)
		if *trace {
			// A rejected load's trace ends with the phase that rejected it.
			fmt.Print(obs.Text(encl.Bootstrap().LastTrace()))
		}
		return 1
	}
	fmt.Printf("load+verify: ACCEPTED in %v (text %d bytes, hash %x)\n",
		time.Since(start).Round(time.Microsecond), rep.TextSize, rep.BinaryHash[:8])
	if *trace {
		fmt.Print(obs.Text(rep.Trace))
		fmt.Println("policy audit:")
		for _, a := range rep.Audit {
			verdict := "PASS"
			if !a.Passed {
				verdict = "FAIL"
			}
			if !a.Required {
				verdict = "SKIP"
			}
			fmt.Printf("  %-3s %s  checks=%d  %s\n", a.Policy, verdict, a.Checks, a.Detail)
		}
	}
	if *verbose {
		fmt.Printf("  instructions checked: %d\n", rep.Stats.Instructions)
		fmt.Printf("  store guards: %d, rsp guards: %d, cfi guards: %d\n",
			rep.Stats.StoreGuards, rep.Stats.RSPGuards, rep.Stats.CFIGuards)
		fmt.Printf("  shadow pushes/checks: %d/%d, AEX checks: %d\n",
			rep.Stats.ShadowPushes, rep.Stats.ShadowChecks, rep.Stats.AEXChecks)
		fmt.Printf("  rewritten: %d store bounds, %d stack bounds, %d SSA sites\n",
			rep.Rewrites.StoreBounds, rep.Rewrites.StackBounds, rep.Rewrites.SSASites)
	}

	for _, p := range params {
		encl.SendInt(p)
	}
	if *dataFile != "" {
		data, err := os.ReadFile(*dataFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		encl.Send(data)
	}

	rc := runtime.RunConfig{Gas: *gas, AEXInterval: *aex}
	if *itrace > 0 {
		left := *itrace
		rc.Trace = func(rip uint64, in isa.Inst) {
			if left > 0 {
				fmt.Printf("  %#08x  %s\n", rip, in.String())
				left--
			}
		}
	}
	raw2, err := encl.Bootstrap().Run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res := summarise(raw2)
	if res.Trapped {
		fmt.Printf("execution ABORTED by policy: %s (after %d instructions)\n", res.TrapReason, res.Insts)
		return 3
	}
	fmt.Printf("exit value: %d\n", res.ExitValue)
	fmt.Printf("instructions: %d, modelled cycles: %.0f, AEXes: %d\n", res.Insts, res.Cycles, res.AEXCount)
	for i, out := range res.Outputs {
		msg, err := deflection.OpenOutput(nil, out)
		if err != nil {
			fmt.Printf("output[%d]: %d sealed bytes\n", i, len(out))
			continue
		}
		fmt.Printf("output[%d]: %d bytes: %q\n", i, len(msg), preview(msg))
	}
	return 0
}

func preview(b []byte) string {
	if len(b) > 48 {
		return string(b[:48]) + "..."
	}
	return string(b)
}
