// Package bench regenerates every table and figure of the paper's
// evaluation (Section VI): Table I (TCB comparison), Table II (nBench
// overheads), Fig. 7 (sequence alignment), Fig. 8 (sequence generation),
// Fig. 9 (credit scoring), Fig. 10 (HTTPS load), Fig. 11 (shielding-runtime
// comparison), the Section IV-C co-location accuracy experiment, and the
// Section VI-A loader/verifier micro-benchmarks.
//
// Each experiment returns a typed result whose String method renders the
// same rows/series the paper reports; cmd/deflection-bench drives them.
// Every experiment that runs a program goes through apps.Run, and every
// overhead column through one base-once sweep.
package bench

import (
	"fmt"
	"strings"

	"deflection/internal/apps"
	"deflection/internal/policy"
)

// settings are the instrumentation columns of the paper's evaluation: P1,
// P1+P2, P1-P5 and P1-P6.
var settings = []apps.RunConfig{
	{Policies: policy.SetP1},
	{Policies: policy.SetP1P2},
	{Policies: policy.SetP1P5},
	{Policies: policy.SetP1P6},
}

// table renders aligned rows.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}

func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }
