package bench

import (
	"fmt"
	"time"

	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// CFARow is one binary's verification cost with and without the
// control-flow-analysis passes, plus the CFA stage split.
type CFARow struct {
	Name      string
	TextBytes int
	Blocks    int
	Edges     int
	Anchors   int

	Base      time.Duration // template verification only (CFA disabled)
	Full      time.Duration // template verification + CFA passes
	Build     time.Duration // CFG construction + dominator tree
	Dominance time.Duration
	DeadByte  time.Duration
	Targets   time.Duration
}

// CFAResult prices the CFA passes: the delta between a template-only
// verification and the full pipeline, answering whether whole-program
// dominance checking is affordable at load time.
type CFAResult struct {
	Iters int
	Rows  []CFARow
}

// CFA measures verifier cost per nBench kernel under P1-P6, toggling
// Options.DisableCFA. Both variants run on identical relocated text so the
// difference is exactly the CFG build plus the three passes.
func CFA(quick bool) (*CFAResult, error) {
	iters := 30
	if quick {
		iters = 5
	}
	res := &CFAResult{Iters: iters}
	for _, k := range nbench.Kernels() {
		text, opts, err := VerifyInput("cfa "+k.Name, k.Source, policy.SetP1P6)
		if err != nil {
			return nil, err
		}

		row := CFARow{Name: k.Name, TextBytes: len(text)}
		for i := 0; i < iters; i++ {
			base := opts
			base.DisableCFA = true
			start := time.Now()
			if _, err := verifier.Verify(text, base); err != nil {
				return nil, fmt.Errorf("bench: cfa %s (base): %w", k.Name, err)
			}
			row.Base += time.Since(start)

			start = time.Now()
			r, err := verifier.Verify(text, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: cfa %s (full): %w", k.Name, err)
			}
			row.Full += time.Since(start)
			row.Build += r.CFADur.Build
			row.Dominance += r.CFADur.Dominance
			row.DeadByte += r.CFADur.DeadByte
			row.Targets += r.CFADur.Targets
			row.Blocks, row.Edges, row.Anchors = r.CFA.Blocks, r.CFA.Edges, r.CFA.Anchors
		}
		n := time.Duration(iters)
		row.Base /= n
		row.Full /= n
		row.Build /= n
		row.Dominance /= n
		row.DeadByte /= n
		row.Targets /= n
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the CFA cost table with the overhead relative to the
// template-only verification.
func (r *CFAResult) String() string {
	t := &table{header: []string{"binary", "text", "blocks", "edges", "anchors", "verify", "+cfa", "overhead", "build", "dom", "dead+tgt"}}
	var sumBase, sumFull time.Duration
	for _, row := range r.Rows {
		over := "-"
		if row.Base > 0 {
			over = fmt.Sprintf("+%.1f%%", float64(row.Full-row.Base)/float64(row.Base)*100)
		}
		t.add(row.Name,
			fmt.Sprintf("%d KiB", row.TextBytes/1024),
			fmt.Sprint(row.Blocks),
			fmt.Sprint(row.Edges),
			fmt.Sprint(row.Anchors),
			row.Base.Round(time.Microsecond).String(),
			row.Full.Round(time.Microsecond).String(),
			over,
			row.Build.Round(time.Microsecond).String(),
			row.Dominance.Round(time.Microsecond).String(),
			(row.DeadByte + row.Targets).Round(time.Microsecond).String())
		sumBase += row.Base
		sumFull += row.Full
	}
	over := "-"
	if sumBase > 0 {
		over = fmt.Sprintf("+%.1f%%", float64(sumFull-sumBase)/float64(sumBase)*100)
	}
	t.add("TOTAL", "", "", "", "",
		sumBase.Round(time.Microsecond).String(),
		sumFull.Round(time.Microsecond).String(), over, "", "", "")
	return fmt.Sprintf("CFG recovery + dominance verification cost (P1-P6, mean of %d runs)\n%s", r.Iters, t.String())
}
