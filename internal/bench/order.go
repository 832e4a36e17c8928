package bench

import (
	"fmt"
	"time"

	"deflection/internal/apps"
	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// OrderRow is one binary's verification cost with and without the P8
// interface-orderliness pass, everything else (templates + CFA) held
// constant.
type OrderRow struct {
	Name      string
	TextBytes int
	States    int
	Ctxs      int
	Funcs     int
	Trivial   bool

	Base  time.Duration // P1-P8 verification with the order pass ablated
	Full  time.Duration // the same plus the product fixpoint
	Order time.Duration // the order pass alone (CFADur.Order)
}

// OrderResult prices policy P8: the marginal cost of the protocol-automaton
// product fixpoint on top of a CFA-inclusive verification. The budget is the
// roadmap's acceptance bar: the pass must stay within +10% of the
// order-ablated verification time.
type OrderResult struct {
	Iters  int
	Budget float64 // relative overhead bar (0.10 = +10%)
	Rows   []OrderRow
}

// benchProtocol admits every interface event the DC builtins can emit from a
// single attested state. Declaring it forces the order pass through the real
// product fixpoint on every path of the application without introducing
// violations; it mirrors the permissive protocol used by the apps sweep.
const benchProtocol = `
protocol {
    state run attested;
    state end attested;
    run: send -> run;
    run: recv -> run;
    run: print -> run;
    run: tid -> run;
    run: hlt -> end;
}
`

// orderWorkloads are the benchmarked binaries: the applications with a
// declared permissive protocol (the pass runs its full product fixpoint) and
// the protocol-free nBench kernels (the pass must ride the trivial fast path
// for free).
func orderWorkloads() []struct{ name, src string } {
	ws := []struct{ name, src string }{
		{"nw-proto", benchProtocol + apps.NWSource},
		{"credit-proto", benchProtocol + apps.CreditSource},
		{"seqgen-proto", benchProtocol + apps.SeqGenSource},
		{"httpsrv-proto", benchProtocol + apps.HTTPSHandlerSource},
	}
	for _, k := range nbench.Kernels() {
		ws = append(ws, struct{ name, src string }{k.Name, k.Source})
	}
	return ws
}

// Order measures verifier cost per workload under P1-P8, toggling
// Options.DisableOrder. Both variants run on identical relocated text with
// the identical declared protocol, so the difference is exactly the order
// pass.
func Order(quick bool) (*OrderResult, error) {
	iters := 30
	if quick {
		iters = 5
	}
	res := &OrderResult{Iters: iters, Budget: 0.10}
	for _, w := range orderWorkloads() {
		text, opts, err := VerifyInput("order "+w.name, w.src, policy.SetP1P8)
		if err != nil {
			return nil, err
		}

		row := OrderRow{Name: w.name, TextBytes: len(text)}
		for i := 0; i < iters; i++ {
			base := opts
			base.DisableOrder = true
			start := time.Now()
			if _, err := verifier.Verify(text, base); err != nil {
				return nil, fmt.Errorf("bench: order %s (ablated): %w", w.name, err)
			}
			row.Base += time.Since(start)

			start = time.Now()
			r, err := verifier.Verify(text, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: order %s (full): %w", w.name, err)
			}
			row.Full += time.Since(start)
			row.Order += r.CFADur.Order
			row.States, row.Ctxs = r.CFA.OrderStates, r.CFA.OrderCtxs
			row.Funcs, row.Trivial = r.CFA.OrderFuncs, r.CFA.OrderTrivial
		}
		n := time.Duration(iters)
		row.Base /= n
		row.Full /= n
		row.Order /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Overhead returns the aggregate relative cost of the order pass across all
// workloads (sum of full over sum of ablated, minus one).
func (r *OrderResult) Overhead() float64 {
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

// String renders the P8 cost table with the overhead relative to the
// order-ablated verification and the budget verdict.
func (r *OrderResult) String() string {
	t := &table{header: []string{"binary", "text", "states", "ctxs", "verify", "+order", "order pass", "overhead"}}
	for _, row := range r.Rows {
		over := "-"
		if row.Base > 0 {
			over = fmt.Sprintf("+%.1f%%", float64(row.Full-row.Base)/float64(row.Base)*100)
		}
		ctxs := fmt.Sprintf("%d/%d", row.Ctxs, row.Funcs)
		if row.Trivial {
			ctxs = "trivial"
		}
		t.add(row.Name,
			fmt.Sprintf("%d KiB", row.TextBytes/1024),
			fmt.Sprint(row.States),
			ctxs,
			row.Base.Round(time.Microsecond).String(),
			row.Full.Round(time.Microsecond).String(),
			row.Order.Round(time.Microsecond).String(),
			over)
	}
	verdict := "within"
	if r.Overhead() > r.Budget {
		verdict = "OVER"
	}
	return fmt.Sprintf("P8 interface-orderliness verification cost (P1-P8, mean of %d runs)\n%saggregate overhead %+.1f%% — %s the +%.0f%% budget",
		r.Iters, t.String(), r.Overhead()*100, verdict, r.Budget*100)
}
