package bench

import (
	"fmt"
	"time"

	"deflection/internal/apps"
	"deflection/internal/hyperrace"
	"deflection/internal/nbench"
	"deflection/internal/obs"
	"deflection/internal/policy"
)

// ColocRow is one processor's co-location accuracy.
type ColocRow struct {
	Processor     string
	AlphaAnalytic float64
	AlphaSampled  float64
	BetaAnalytic  float64
	Tests         int
}

// ColocResult reproduces the Section IV-C accuracy experiment: the
// false-positive rate of the HyperRace co-location test on four processor
// models.
type ColocResult struct {
	Rows []ColocRow
}

// Coloc estimates alpha/beta per processor model. tests is the number of
// unit tests per placement (the paper runs 25.6M; 10k-1M reproduces the
// same orders of magnitude in seconds).
func Coloc(tests int) *ColocResult {
	if tests <= 0 {
		tests = 200_000
	}
	test := hyperrace.DefaultTest()
	res := &ColocResult{}
	for i, p := range hyperrace.Processors {
		est := hyperrace.EstimateAlpha(test, p, tests, int64(1000+i))
		res.Rows = append(res.Rows, ColocRow{
			Processor:     p.Name,
			AlphaAnalytic: hyperrace.AlphaAnalytic(test, p),
			AlphaSampled:  est.Alpha,
			BetaAnalytic:  hyperrace.BetaAnalytic(test, p),
			Tests:         tests,
		})
	}
	return res
}

// String renders the accuracy table.
func (r *ColocResult) String() string {
	t := &table{header: []string{"Processor", "alpha (analytic)", "alpha (sampled)", "beta (analytic)"}}
	for _, row := range r.Rows {
		t.add(row.Processor,
			fmt.Sprintf("%.2e", row.AlphaAnalytic),
			fmt.Sprintf("%.2e", row.AlphaSampled),
			fmt.Sprintf("%.2e", row.BetaAnalytic))
	}
	return fmt.Sprintf("Co-location test accuracy (Section IV-C), %d unit tests per cell\n", r.Rows[0].Tests) + t.String()
}

// microStages are the stage columns of the micro-benchmark, read from the
// trace of the timed ReceiveBinary. Every span of an accepted P1-P6 load
// on the default (non-SGXv2) enclave falls into exactly one of them.
var microStages = []struct {
	name string
	dur  func(*obs.Trace) time.Duration
}{
	{"parse", func(tr *obs.Trace) time.Duration { return obs.Dur(tr, "parse") }},
	{"load", func(tr *obs.Trace) time.Duration { return obs.Dur(tr, "load") }},
	{"disasm", func(tr *obs.Trace) time.Duration { return obs.Dur(tr, "disasm") }},
	{"policies", func(tr *obs.Trace) time.Duration { return obs.DurPrefix(tr, "policy/") + obs.Dur(tr, "discipline") }},
	{"cfa", func(tr *obs.Trace) time.Duration { return obs.DurPrefix(tr, "cfa/") }},
	{"rewrite", func(tr *obs.Trace) time.Duration { return obs.Dur(tr, "rewrite") }},
	{"install", func(tr *obs.Trace) time.Duration { return obs.DurPrefix(tr, "install_") }},
}

// MicroRow is one binary's load+verify cost and its stage split.
type MicroRow struct {
	Name        string
	TextBytes   int
	Insts       int
	LoadVerify  time.Duration
	PerKaByte   time.Duration // cost per KiB of text
	StoreGuards int
	Stages      []time.Duration // one per microStages column
	TraceTotal  time.Duration   // sum of all traced spans
}

// MicroResult reproduces the loader/verifier turnaround micro-benchmark
// (the paper's "quick turnaround" requirement, Section III-B) and breaks
// each load down by pipeline stage.
type MicroResult struct {
	Rows []MicroRow
}

// Micro measures the full ECall-to-accept path (parse, load, relocate,
// verify, rewrite, install) for every nBench kernel binary under the full policy
// set, splitting it by stage with the trace that ReceiveBinary records.
func Micro() (*MicroResult, error) {
	res := &MicroResult{}
	for _, k := range nbench.Kernels() {
		// Fresh enclave per measurement, as each load would be.
		l, err := apps.Load(k.Name, k.Source, apps.RunConfig{Policies: policy.SetP1P6})
		if err != nil {
			return nil, fmt.Errorf("bench: micro: %w", err)
		}
		rep := l.Report
		row := MicroRow{
			Name:        k.Name,
			TextBytes:   rep.TextSize,
			Insts:       rep.Stats.Instructions,
			LoadVerify:  l.LoadTime,
			PerKaByte:   time.Duration(float64(l.LoadTime) / (float64(rep.TextSize) / 1024)),
			StoreGuards: rep.Stats.StoreGuards,
			TraceTotal:  obs.Total(rep.Trace),
		}
		for _, st := range microStages {
			row.Stages = append(row.Stages, st.dur(rep.Trace))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the micro-benchmark table, each stage with its share of
// the traced total.
func (r *MicroResult) String() string {
	header := []string{"binary", "text", "insts", "load+verify", "per KiB"}
	for _, st := range microStages {
		header = append(header, st.name)
	}
	t := &table{header: header}
	cell := func(d, total time.Duration) string {
		return fmt.Sprintf("%v (%.0f%%)", d.Round(time.Microsecond), ratio(d, total)*100)
	}
	sums := make([]time.Duration, len(microStages))
	var sumTotal time.Duration
	for _, row := range r.Rows {
		cells := []string{row.Name,
			fmt.Sprintf("%d KiB", row.TextBytes/1024),
			fmt.Sprintf("%d", row.Insts),
			row.LoadVerify.Round(time.Microsecond).String(),
			row.PerKaByte.Round(time.Microsecond).String()}
		for i, d := range row.Stages {
			cells = append(cells, cell(d, row.TraceTotal))
			sums[i] += d
		}
		sumTotal += row.TraceTotal
		t.add(cells...)
	}
	cells := []string{"TOTAL", "", "", "", ""}
	for _, d := range sums {
		cells = append(cells, cell(d, sumTotal))
	}
	t.add(cells...)
	return "Loader/verifier turnaround and stage split (full P1-P6 verification; shares of the traced total)\n" + t.String()
}
