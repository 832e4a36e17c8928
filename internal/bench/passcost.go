package bench

import (
	"fmt"
	"sort"
	"time"

	"deflection/internal/apps"
	"deflection/internal/nbench"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// passCost prices one group of verifier passes: every workload is verified
// under pols with a stage trace, and the pass's own spans in it are set
// against the rest of the same Verify call, so no second, pass-less
// verification is needed.
type passCost struct {
	name   string
	title  string
	pols   policy.Set
	apps   []passWorkload // benchmarked before the nBench kernels
	span   func(*obs.Trace) time.Duration
	budget float64 // bar for the analysed apps' aggregate overhead (0 = none)
	header []string
	// stats renders the header's columns from the verifier's inputs and
	// its Result.
	stats func(verifier.Options, *verifier.Result) []string
}

type passWorkload struct{ name, src string }

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

// passCosts are the pass-cost experiments. The applications run the full
// analysis (tagged secret buffers, a declared protocol); the untagged,
// protocol-free kernels must ride the P7/P8 trivial fast path for free.
var passCosts = []passCost{
	{
		name:   "cfa",
		title:  "CFG recovery + dominance verification cost under P1-P6",
		pols:   policy.SetP1P6,
		span:   func(tr *obs.Trace) time.Duration { return obs.DurPrefix(tr, "cfa/") },
		header: []string{"blocks", "edges", "anchors"},
		stats: func(_ verifier.Options, r *verifier.Result) []string {
			return []string{fmt.Sprint(r.CFA.Blocks), fmt.Sprint(r.CFA.Edges), fmt.Sprint(r.CFA.Anchors)}
		},
	},
	{
		name:  "taint",
		title: "P7 secret-taint verification cost under P1-P7",
		pols:  policy.SetP1P7,
		apps: []passWorkload{
			{"nw-secret", apps.NWSource},
			{"credit-secret", apps.CreditSource},
		},
		span:   func(tr *obs.Trace) time.Duration { return obs.Dur(tr, "cfa/taint") },
		budget: 0.15,
		header: []string{"secrets", "funcs"},
		stats: func(o verifier.Options, r *verifier.Result) []string {
			funcs := fmt.Sprint(r.Taint.Funcs)
			if r.Taint.Trivial {
				funcs = "trivial"
			}
			return []string{fmt.Sprint(len(o.Taint.Secrets)), funcs}
		},
	},
	{
		name:  "order",
		title: "P8 interface-orderliness verification cost under P1-P8",
		pols:  policy.SetP1P8,
		apps: []passWorkload{
			{"nw-proto", benchProtocol + apps.NWSource},
			{"credit-proto", benchProtocol + apps.CreditSource},
			{"seqgen-proto", benchProtocol + apps.SeqGenSource},
			{"httpsrv-proto", benchProtocol + apps.HTTPSHandlerSource},
		},
		span:   func(tr *obs.Trace) time.Duration { return obs.Dur(tr, "cfa/order") },
		budget: 0.10,
		header: []string{"states", "ctxs"},
		stats: func(o verifier.Options, r *verifier.Result) []string {
			if r.Order.Trivial {
				return []string{"0", "trivial"}
			}
			return []string{fmt.Sprint(len(o.Order.States)), fmt.Sprintf("%d/%d", r.Order.Ctxs, r.Order.Funcs)}
		},
	},
}

// PassCostRow is one binary's median verification time and the median
// span of the priced pass within it.
type PassCostRow struct {
	Name      string
	TextBytes int
	Stats     []string      // the experiment's stat columns
	Verify    time.Duration // whole verifier.Verify call
	Pass      time.Duration // the priced pass's span inside it
}

// Overhead is the pass's cost relative to the rest of the verification.
func (r PassCostRow) Overhead() float64 { return ratio(r.Pass, r.Verify-r.Pass) }

// PassCostResult prices one pass group across its workloads.
type PassCostResult struct {
	Iters int
	Rows  []PassCostRow
	exp   *passCost
}

// PassCost runs the pass-cost experiment named cfa, taint or order:
// verifier.Verify 30 times per binary (5 when quick) on the relocated text
// apps.VerifyInput produces, taking the median Verify time and the median pass
// span.
func PassCost(name string, quick bool) (*PassCostResult, error) {
	var e *passCost
	for i := range passCosts {
		if passCosts[i].name == name {
			e = &passCosts[i]
			break
		}
	}
	if e == nil {
		return nil, fmt.Errorf("bench: unknown pass-cost experiment %q", name)
	}
	iters := 30
	if quick {
		iters = 5
	}
	ws := append([]passWorkload(nil), e.apps...)
	for _, k := range nbench.Kernels() {
		ws = append(ws, passWorkload{k.Name, k.Source})
	}
	res := &PassCostResult{Iters: iters, exp: e}
	for _, w := range ws {
		text, opts, err := apps.VerifyInput(name+" "+w.name, w.src, e.pols)
		if err != nil {
			return nil, err
		}
		row := PassCostRow{Name: w.name, TextBytes: len(text)}
		verify := make([]time.Duration, iters)
		pass := make([]time.Duration, iters)
		for i := range verify {
			opts.Trace = obs.NewTrace(w.name)
			start := time.Now()
			r, err := verifier.Verify(text, opts)
			verify[i] = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: %s %s: %w", name, w.name, err)
			}
			pass[i] = e.span(opts.Trace)
			row.Stats = e.stats(opts, r)
		}
		row.Verify, row.Pass = median(verify), median(pass)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// median sorts ds in place and returns its middle element (the lower one
// of an even count).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)-1)/2]
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Overhead is the aggregate cost of the pass across all workloads: summed
// pass spans over the summed rest of the verifications.
func (r *PassCostResult) Overhead() float64 { return aggregate(r.Rows) }

// AppsOverhead is the aggregate over the analysed applications alone,
// without the kernels that ride the trivial fast path (0 when the
// experiment has none).
func (r *PassCostResult) AppsOverhead() float64 { return aggregate(r.Rows[:len(r.exp.apps)]) }

func aggregate(rows []PassCostRow) float64 {
	var pass, rest time.Duration
	for _, row := range rows {
		pass += row.Pass
		rest += row.Verify - row.Pass
	}
	return ratio(pass, rest)
}

// String renders the per-binary pass cost, the aggregate overhead and, when
// the experiment has one, the budget verdict.
func (r *PassCostResult) String() string {
	header := append([]string{"binary", "text"}, r.exp.header...)
	t := &table{header: append(header, "verify", r.exp.name+" pass", "overhead")}
	for _, row := range r.Rows {
		cells := append([]string{row.Name, fmt.Sprintf("%d KiB", row.TextBytes/1024)}, row.Stats...)
		t.add(append(cells,
			row.Verify.Round(time.Microsecond).String(),
			row.Pass.Round(time.Microsecond).String(),
			pct(row.Overhead()))...)
	}
	s := fmt.Sprintf("%s (median of %d runs; overhead = pass / (verify - pass))\n%s", r.exp.title, r.Iters, t.String())
	if n := len(r.exp.apps); n > 0 {
		s += fmt.Sprintf("analysed apps (%d) aggregate overhead %s\n", n, pct(r.AppsOverhead()))
	}
	s += "aggregate overhead " + pct(r.Overhead())
	if b := r.exp.budget; b > 0 {
		verdict := "within"
		if r.AppsOverhead() > b {
			verdict = "OVER"
		}
		s += fmt.Sprintf(" — analysed apps %s the +%.0f%% budget", verdict, b*100)
	}
	return s
}
