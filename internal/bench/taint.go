package bench

import (
	"fmt"
	"time"

	"deflection/internal/apps"
	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// TaintRow is one binary's verification cost with and without the P7
// secret-taint pass, everything else (templates + CFA) held constant.
type TaintRow struct {
	Name      string
	TextBytes int
	Secrets   int
	Funcs     int
	Trivial   bool

	Base  time.Duration // P1-P7 verification with the taint pass ablated
	Full  time.Duration // the same plus the taint fixpoint
	Taint time.Duration // the taint pass alone (CFADur.Taint)
}

// TaintResult prices policy P7: the marginal cost of the whole-program
// taint fixpoint on top of a CFA-inclusive verification. The budget is the
// roadmap's acceptance bar: the pass must stay within +15% of the
// taint-ablated verification time.
type TaintResult struct {
	Iters  int
	Budget float64 // relative overhead bar (0.15 = +15%)
	Rows   []TaintRow
}

// taintWorkloads are the benchmarked binaries: the two applications with
// tagged secret buffers (the pass runs its full interprocedural analysis)
// and the untagged nBench kernels (the pass must ride the trivial fast
// path for free).
func taintWorkloads() []struct{ name, src string } {
	ws := []struct{ name, src string }{
		{"nw-secret", apps.NWSource},
		{"credit-secret", apps.CreditSource},
	}
	for _, k := range nbench.Kernels() {
		ws = append(ws, struct{ name, src string }{k.Name, k.Source})
	}
	return ws
}

// Taint measures verifier cost per workload under P1-P7, toggling
// Options.DisableTaint. Both variants run on identical relocated text with
// identical secret geometry, so the difference is exactly the taint pass.
func Taint(quick bool) (*TaintResult, error) {
	iters := 30
	if quick {
		iters = 5
	}
	res := &TaintResult{Iters: iters, Budget: 0.15}
	for _, w := range taintWorkloads() {
		text, opts, err := VerifyInput("taint "+w.name, w.src, policy.SetP1P7)
		if err != nil {
			return nil, err
		}

		row := TaintRow{Name: w.name, TextBytes: len(text)}
		for i := 0; i < iters; i++ {
			base := opts
			base.DisableTaint = true
			start := time.Now()
			if _, err := verifier.Verify(text, base); err != nil {
				return nil, fmt.Errorf("bench: taint %s (ablated): %w", w.name, err)
			}
			row.Base += time.Since(start)

			start = time.Now()
			r, err := verifier.Verify(text, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: taint %s (full): %w", w.name, err)
			}
			row.Full += time.Since(start)
			row.Taint += r.CFADur.Taint
			row.Secrets, row.Funcs, row.Trivial = r.CFA.Secrets, r.CFA.TaintFuncs, r.CFA.TaintTrivial
		}
		n := time.Duration(iters)
		row.Base /= n
		row.Full /= n
		row.Taint /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Overhead returns the aggregate relative cost of the taint pass across
// all workloads (sum of full over sum of ablated, minus one).
func (r *TaintResult) Overhead() float64 {
	var base, full time.Duration
	for _, row := range r.Rows {
		base += row.Base
		full += row.Full
	}
	if base == 0 {
		return 0
	}
	return float64(full-base) / float64(base)
}

// String renders the P7 cost table with the overhead relative to the
// taint-ablated verification and the budget verdict.
func (r *TaintResult) String() string {
	t := &table{header: []string{"binary", "text", "secrets", "funcs", "verify", "+taint", "taint pass", "overhead"}}
	for _, row := range r.Rows {
		over := "-"
		if row.Base > 0 {
			over = fmt.Sprintf("+%.1f%%", float64(row.Full-row.Base)/float64(row.Base)*100)
		}
		funcs := fmt.Sprint(row.Funcs)
		if row.Trivial {
			funcs = "trivial"
		}
		t.add(row.Name,
			fmt.Sprintf("%d KiB", row.TextBytes/1024),
			fmt.Sprint(row.Secrets),
			funcs,
			row.Base.Round(time.Microsecond).String(),
			row.Full.Round(time.Microsecond).String(),
			row.Taint.Round(time.Microsecond).String(),
			over)
	}
	verdict := "within"
	if r.Overhead() > r.Budget {
		verdict = "OVER"
	}
	return fmt.Sprintf("P7 secret-taint verification cost (P1-P7, mean of %d runs)\n%saggregate overhead %+.1f%% — %s the +%.0f%% budget",
		r.Iters, t.String(), r.Overhead()*100, verdict, r.Budget*100)
}
