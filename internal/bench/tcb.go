package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"deflection/internal/lint"
)

// TCBRow is one line of Table I.
type TCBRow struct {
	Runtime    string
	Components string
	KLoC       float64
	SizeMB     string
	Measured   bool // true for rows counted from this repository
	Counted    bool // true for the trusted packages summed into the total
}

// TCBResult reproduces Table I: the trusted computing base of DEFLECTION's
// in-enclave components, counted live from this repository, against the
// published figures for the other shielding runtimes.
type TCBResult struct {
	Rows []TCBRow
}

// publishedTCB are the paper's Table I figures for the comparison systems.
var publishedTCB = []TCBRow{
	{Runtime: "Ryoan", Components: "Eglibc", KLoC: 892, SizeMB: "> 19"},
	{Runtime: "Ryoan", Components: "NaCl sandbox", KLoC: 216, SizeMB: ""},
	{Runtime: "Ryoan", Components: "Naclports", KLoC: 460, SizeMB: ""},
	{Runtime: "SCONE", Components: "OS shield and shim libc", KLoC: 187, SizeMB: "> 16"},
	{Runtime: "SCONE", Components: "Glibc", KLoC: 1200, SizeMB: ""},
	{Runtime: "Graphene-SGX", Components: "LibPAL", KLoC: 22, SizeMB: "> 58.5"},
	{Runtime: "Graphene-SGX", Components: "Graphene LibOS", KLoC: 34, SizeMB: ""},
	{Runtime: "Occlum", Components: "shim libc", KLoC: 93, SizeMB: "> 8.6"},
	{Runtime: "Occlum", Components: "Verifier + LibOS + PAL", KLoC: 24.5, SizeMB: ""},
}

// ourRuntime labels this repository's rows of Table I.
const ourRuntime = "DEFLECTION (this repo)"

// sourceRoot returns the module root of this repository's source tree. It
// works when the source tree is available (go test, go run from the repo),
// which is how the paper's own cloc-style numbers were produced.
func sourceRoot() (string, error) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("bench: cannot locate source tree")
	}
	return filepath.Join(filepath.Dir(self), "..", ".."), nil
}

// CountPackageLoC counts the non-blank, non-comment lines of the non-test
// Go files of a package of this repository, named by its module-relative
// path ("internal/verifier", "attest").
func CountPackageLoC(pkg string) (int, error) {
	root, err := sourceRoot()
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(root, filepath.FromSlash(pkg))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			t := strings.TrimSpace(line)
			if t == "" || strings.HasPrefix(t, "//") {
				continue
			}
			total++
		}
	}
	return total, nil
}

// TableI builds the TCB comparison. Our rows are exactly the packages the
// TCB import lint walks (lint.DefaultConfig's roots and their first-party
// closure), one row per package path. The SGX hardware models
// (lint.HardwareModels) share one row that is listed but not summed.
func TableI() (*TCBResult, error) {
	root, err := sourceRoot()
	if err != nil {
		return nil, err
	}
	rep, err := lint.Check(lint.DefaultConfig(root))
	if err != nil {
		return nil, err
	}
	hardware := make(map[string]bool, len(lint.HardwareModels))
	for _, pkg := range lint.HardwareModels {
		hardware[pkg] = true
	}
	res := &TCBResult{Rows: append([]TCBRow(nil), publishedTCB...)}
	var ours, hwKLoC float64
	var hwPkgs []string
	for _, path := range rep.Packages {
		pkg := strings.TrimPrefix(path, rep.Module+"/")
		n, err := CountPackageLoC(pkg)
		if err != nil {
			return nil, fmt.Errorf("bench: counting %s: %w", pkg, err)
		}
		kloc := float64(n) / 1000
		if hardware[pkg] {
			hwPkgs = append(hwPkgs, pkg)
			hwKLoC += kloc
			continue
		}
		res.Rows = append(res.Rows, TCBRow{Runtime: ourRuntime, Components: pkg, KLoC: kloc, Measured: true, Counted: true})
		ours += kloc
	}
	res.Rows = append(res.Rows,
		TCBRow{
			Runtime:    ourRuntime,
			Components: strings.Join(hwPkgs, " + ") + " (SGX model, not summed)",
			KLoC:       hwKLoC,
			Measured:   true,
		},
		TCBRow{
			Runtime:    ourRuntime,
			Components: "TOTAL trusted",
			KLoC:       ours,
			SizeMB:     "n/a (pure Go)",
			Measured:   true,
		})
	return res, nil
}

// String renders Table I.
func (r *TCBResult) String() string {
	t := &table{header: []string{"Shielding runtime", "Core components", "kLoC", "Size (MB)"}}
	for _, row := range r.Rows {
		mark := ""
		if row.Measured {
			mark = " *"
		}
		kloc := fmt.Sprintf("%.1f", row.KLoC)
		if row.Measured {
			kloc = fmt.Sprintf("%.2f", row.KLoC)
		}
		t.add(row.Runtime, row.Components+mark, kloc, row.SizeMB)
	}
	return "Table I: TCB comparison (* = counted live from this repository)\n" + t.String()
}

// TotalTrustedKLoC returns the summed DEFLECTION TCB size.
func (r *TCBResult) TotalTrustedKLoC() float64 {
	var total float64
	for _, row := range r.Rows {
		if row.Counted {
			total += row.KLoC
		}
	}
	return total
}
