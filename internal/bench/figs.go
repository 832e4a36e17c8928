package bench

import (
	"fmt"

	"deflection/internal/apps"
)

// SweepPoint is one x-axis point of an overhead figure: the baseline cost
// and relative overhead per instrumentation setting.
type SweepPoint struct {
	X         int64
	BaseInsts uint64
	BaseMs    float64 // baseline modelled time at 3.6 GHz
	Overheads [4]float64
}

// SweepResult is a Fig. 7/8/9-style series.
type SweepResult struct {
	Title  string
	XLabel string
	Points []SweepPoint
}

// String renders the series as the figure's data table.
func (r *SweepResult) String() string {
	t := &table{header: []string{r.XLabel, "base ms", "P1", "P1+P2", "P1-P5", "P1-P6"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%d", p.X), fmt.Sprintf("%.2f", p.BaseMs),
			pct(p.Overheads[0]), pct(p.Overheads[1]), pct(p.Overheads[2]), pct(p.Overheads[3]))
	}
	return r.Title + "\n" + t.String()
}

// MaxOverhead returns the largest overhead of the given setting column.
func (r *SweepResult) MaxOverhead(col int) float64 {
	max := 0.0
	for _, p := range r.Points {
		if p.Overheads[col] > max {
			max = p.Overheads[col]
		}
	}
	return max
}

// sweep runs one workload at the uninstrumented baseline and then under
// each setting, checking that every run halts normally with the baseline's
// exit value. run receives the setting's configuration and adds what the
// workload fixes for all of its runs.
func sweep(what string, settings []apps.RunConfig, run func(apps.RunConfig) (*apps.Result, error)) (base *apps.Result, runs []*apps.Result, err error) {
	base, err = run(apps.RunConfig{})
	if err != nil {
		return nil, nil, err
	}
	if !base.Ok() {
		return nil, nil, fmt.Errorf("bench: %s baseline failed: status=%v exit=%d trap=%s", what, base.Status, base.Exit, base.Trap)
	}
	for _, rc := range settings {
		res, err := run(rc)
		if err != nil {
			return nil, nil, err
		}
		if !res.Ok() || res.Exit != base.Exit {
			return nil, nil, fmt.Errorf("bench: %s under %+v: status=%v exit=%d (want %d)", what, rc, res.Status, res.Exit, base.Exit)
		}
		runs = append(runs, res)
	}
	return base, runs, nil
}

// overhead is res's relative cycle overhead over base (0.12 for +12%).
func overhead(base, res *apps.Result) float64 { return res.Cycles/base.Cycles - 1 }

// columns sweeps one workload over the four settings columns.
func columns(what string, run func(apps.RunConfig) (*apps.Result, error)) (base *apps.Result, ovs [4]float64, err error) {
	base, runs, err := sweep(what, settings, run)
	if err != nil {
		return nil, ovs, err
	}
	for i, r := range runs {
		ovs[i] = overhead(base, r)
	}
	return base, ovs, nil
}

// sweepPoint runs one x-axis point of an overhead figure.
func sweepPoint(x int64, run func(apps.RunConfig) (*apps.Result, error)) (SweepPoint, error) {
	base, ovs, err := columns(fmt.Sprintf("x=%d", x), run)
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{X: x, BaseInsts: base.Insts, BaseMs: base.Cycles / 3.6e9 * 1000, Overheads: ovs}, nil
}

// Fig7InputLengths are the alignment input sizes (bytes per sequence).
var Fig7InputLengths = []int64{100, 200, 300, 400, 500}

// Fig7 reproduces the sequence-alignment overhead figure.
func Fig7(lengths []int64) (*SweepResult, error) {
	if lengths == nil {
		lengths = Fig7InputLengths
	}
	res := &SweepResult{Title: "Fig. 7: sequence alignment (Needleman-Wunsch)", XLabel: "input len (B)"}
	for _, n := range lengths {
		a := apps.RandomSequence(int(n), 11)
		b := apps.RandomSequence(int(n), 22)
		pt, err := sweepPoint(n, func(rc apps.RunConfig) (*apps.Result, error) {
			return apps.AlignGenomes(rc, a, b)
		})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Fig8OutputLengths are the generation sizes (nucleotides).
var Fig8OutputLengths = []int64{1_000, 10_000, 50_000, 100_000, 200_000, 500_000}

// Fig8 reproduces the sequence-generation overhead figure.
func Fig8(lengths []int64) (*SweepResult, error) {
	if lengths == nil {
		lengths = Fig8OutputLengths
	}
	res := &SweepResult{Title: "Fig. 8: sequence generation", XLabel: "output len (nt)"}
	for _, n := range lengths {
		pt, err := sweepPoint(n, func(rc apps.RunConfig) (*apps.Result, error) {
			return apps.GenerateSequence(rc, n, 7)
		})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Fig9RecordCounts are the credit-scoring workload sizes. The paper sweeps
// 1k-100k records; the upper points are scaled to 50k to keep the emulated
// sweep tractable (the per-record cost model is unchanged, so the overhead
// curve shape is preserved).
var Fig9RecordCounts = []int64{1_000, 5_000, 10_000, 25_000, 50_000}

// Fig9 reproduces the credit-scoring overhead figure.
func Fig9(records []int64) (*SweepResult, error) {
	if records == nil {
		records = Fig9RecordCounts
	}
	res := &SweepResult{Title: "Fig. 9: credit scoring (BP network)", XLabel: "records"}
	for _, n := range records {
		pt, err := sweepPoint(n, func(rc apps.RunConfig) (*apps.Result, error) {
			rc.Gas = 4_000_000_000
			return apps.CreditScore(rc, n)
		})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
