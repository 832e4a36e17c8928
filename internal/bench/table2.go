package bench

import (
	"fmt"
	"math"

	"deflection/internal/apps"
	"deflection/internal/nbench"
)

// Table2Row is one nBench kernel's overheads across the four instrumentation
// settings.
type Table2Row struct {
	Program   string
	Overheads [4]float64 // P1, P1+P2, P1-P5, P1-P6
	BaseInsts uint64
}

// Table2Result reproduces Table II.
type Table2Result struct {
	Rows []Table2Row
	// GeoMeanP1P5 and GeoMeanP1P6 are the suite-level geometric means the
	// paper's abstract quotes (~10% without side-channel mitigation, ~20%
	// with).
	GeoMeanP1P5 float64
	GeoMeanP1P6 float64
}

var quickParams = map[string][]int64{
	"NUMERIC SORT":     {256, 1},
	"STRING SORT":      {64, 1},
	"BITFIELD":         {400},
	"FP EMULATION":     {2000},
	"FOURIER":          {4, 24},
	"ASSIGNMENT":       {16, 1},
	"IDEA":             {256},
	"HUFFMAN":          {512},
	"NEURAL NET":       {8},
	"LU DECOMPOSITION": {12, 1},
}

// table2AEXInterval is the benign interrupt cadence of the Table II runs:
// about one timer tick every 400k instructions.
const table2AEXInterval = 400_000

// kernelRun is a sweep workload running kernel k at its default parameters
// (the quick ones when quick) with AEXes every aexInterval instructions (0
// disables them).
func kernelRun(k nbench.Kernel, quick bool, aexInterval uint64) func(apps.RunConfig) (*apps.Result, error) {
	params := k.Params
	if quick {
		params = quickParams[k.Name]
	}
	var inputs [][]byte
	for _, p := range params {
		inputs = append(inputs, apps.Param(p))
	}
	return func(rc apps.RunConfig) (*apps.Result, error) {
		rc.AEXInterval = aexInterval
		return apps.Run(k.Name, k.Source, rc, inputs...)
	}
}

// TableII measures nBench overheads for every kernel and setting; quick
// shrinks the kernel parameters for smoke runs.
func TableII(quick bool) (*Table2Result, error) {
	res := &Table2Result{}
	var prodP5, prodP6 float64 = 1, 1
	for _, k := range nbench.Kernels() {
		base, ovs, err := columns(k.Name, kernelRun(k, quick, table2AEXInterval))
		if err != nil {
			return nil, err
		}
		row := Table2Row{Program: k.Name, Overheads: ovs, BaseInsts: base.Insts}
		prodP5 *= 1 + row.Overheads[2]
		prodP6 *= 1 + row.Overheads[3]
		res.Rows = append(res.Rows, row)
	}
	n := float64(len(res.Rows))
	if n > 0 {
		res.GeoMeanP1P5 = math.Pow(prodP5, 1/n) - 1
		res.GeoMeanP1P6 = math.Pow(prodP6, 1/n) - 1
	}
	return res, nil
}

// String renders Table II.
func (r *Table2Result) String() string {
	t := &table{header: []string{"Program Name", "P1", "P1+P2", "P1-P5", "P1-P6"}}
	for _, row := range r.Rows {
		t.add(row.Program, pct(row.Overheads[0]), pct(row.Overheads[1]), pct(row.Overheads[2]), pct(row.Overheads[3]))
	}
	return "Table II: performance overhead on nBench\n" + t.String() +
		fmt.Sprintf("geometric mean: %s without side-channel mitigation (P1-P5), %s with (P1-P6)\n",
			pct(r.GeoMeanP1P5), pct(r.GeoMeanP1P6))
}
