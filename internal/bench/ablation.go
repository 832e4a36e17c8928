package bench

import (
	"fmt"

	"deflection/internal/apps"
	"deflection/internal/nbench"
	"deflection/internal/policy"
)

// AblationRow compares one kernel's P1-P5 overhead under the calibrated
// out-of-order annotation discount against a flat per-class cost model.
type AblationRow struct {
	Program      string
	DiscountedOv float64
	FlatOv       float64
}

// AnnotCostResult is the DESIGN.md §5 ablation: how much of the paper's
// reported overhead band depends on modelling annotations at spare-issue
// cost rather than dedicated-slot cost.
type AnnotCostResult struct {
	Rows []AblationRow
}

// annotKernels is the subset used for the ablation (a spread of store
// densities).
var annotKernels = []string{"NUMERIC SORT", "FP EMULATION", "ASSIGNMENT", "HUFFMAN"}

// AnnotCostAblation measures P1-P5 overheads under both annotation-cost
// models.
func AnnotCostAblation(quick bool) (*AnnotCostResult, error) {
	models := []apps.RunConfig{
		{Policies: policy.SetP1P5},
		{Policies: policy.SetP1P5, FlatAnnotationCost: true},
	}
	res := &AnnotCostResult{}
	for _, name := range annotKernels {
		k, ok := nbench.KernelByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown kernel %q", name)
		}
		base, runs, err := sweep(name, models, kernelRun(k, quick, 0))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Program:      name,
			DiscountedOv: overhead(base, runs[0]),
			FlatOv:       overhead(base, runs[1]),
		})
	}
	return res, nil
}

// String renders the ablation.
func (r *AnnotCostResult) String() string {
	t := &table{header: []string{"Program", "P1-P5 (OoO discount)", "P1-P5 (flat model)", "inflation"}}
	for _, row := range r.Rows {
		t.add(row.Program, pct(row.DiscountedOv), pct(row.FlatOv),
			fmt.Sprintf("%.1fx", row.FlatOv/row.DiscountedOv))
	}
	return "Ablation: annotation timing model (DESIGN.md §5)\n" + t.String() +
		"A flat cost model charges annotations several times their real OoO cost,\n" +
		"which would push overheads far outside the paper's reported band.\n"
}

// QRow is one AEX-check-interval setting.
type QRow struct {
	Q         int
	AEXChecks int
	Overhead  float64 // P1-P6 vs baseline
}

// QSweepResult is the P6 granularity ablation: the overhead cost of
// tightening q, the max instructions between SSA inspections.
type QSweepResult struct {
	Kernel string
	Rows   []QRow
}

// QSweep measures P1-P6 overhead for several values of q on one kernel.
func QSweep(qs []int, quick bool) (*QSweepResult, error) {
	if qs == nil {
		qs = []int{5, 10, 20, 50}
	}
	k, _ := nbench.KernelByName("NUMERIC SORT")
	var qsets []apps.RunConfig
	for _, q := range qs {
		qsets = append(qsets, apps.RunConfig{Policies: policy.SetP1P6, AEXCheckInterval: q})
	}
	base, runs, err := sweep(k.Name, qsets, kernelRun(k, quick, 0))
	if err != nil {
		return nil, err
	}
	res := &QSweepResult{Kernel: k.Name}
	for i, r := range runs {
		res.Rows = append(res.Rows, QRow{Q: qs[i], AEXChecks: r.Stats.AEXChecks, Overhead: overhead(base, r)})
	}
	return res, nil
}

// String renders the q sweep.
func (r *QSweepResult) String() string {
	t := &table{header: []string{"q (insts/check)", "static checks", "P1-P6 overhead"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("%d", row.Q), fmt.Sprintf("%d", row.AEXChecks), pct(row.Overhead))
	}
	return fmt.Sprintf("Ablation: P6 SSA-check interval q (%s)\n", r.Kernel) + t.String() +
		"Smaller q detects AEX bursts sooner but costs more; the paper's default is 20.\n"
}
