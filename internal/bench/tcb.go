package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// TCBRow is one line of Table I.
type TCBRow struct {
	Runtime    string
	Components string
	KLoC       float64
	SizeMB     string
	Measured   bool // true for rows counted from this repository
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

// trustedPackages are this reproduction's in-enclave TCB: the pieces that
// correspond to the paper's "Loader/Verifier 1.3 kLoC + RA/Encryption 0.2
// kLoC + Capstone base 9.1 kLoC" row. The compiler, language frontend and
// benchmarks are all outside the TCB.
var trustedPackages = []struct {
	pkg  string
	desc string
}{
	{"loader", "Dynamic loader + imm rewriter"},
	{"verifier", "Policy verifier"},
	{"disasm", "Clipped disassembler"},
	{"cfa", "CFG recovery + dominators + dataflow engine"},
	{"taint", "P7 secret-taint pass"},
	{"order", "P8 interface-order pass"},
	{"isa", "Instruction decoder"},
	{"enclave", "Enclave memory model"},
	{"policy", "Policy/annotation ABI"},
	{"../attest", "RA + encryption"},
	{"runtime", "Bootstrap enclave + OCall stubs"},
}

// CountPackageLoC counts non-test Go source lines of an internal package of
// this repository. It works when the source tree is available (go test, go
// run from the repo), which is how the paper's own cloc-style numbers were
// produced.
func CountPackageLoC(pkg string) (int, error) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return 0, fmt.Errorf("bench: cannot locate source tree")
	}
	dir := filepath.Join(filepath.Dir(self), "..", pkg)
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

// TableI builds the TCB comparison.
func TableI() (*TCBResult, error) {
	res := &TCBResult{Rows: append([]TCBRow(nil), publishedTCB...)}
	var ours float64
	for _, tp := range trustedPackages {
		n, err := CountPackageLoC(tp.pkg)
		if err != nil {
			return nil, fmt.Errorf("bench: counting %s: %w", tp.pkg, err)
		}
		res.Rows = append(res.Rows, TCBRow{
			Runtime:    "DEFLECTION (this repo)",
			Components: tp.desc,
			KLoC:       float64(n) / 1000,
			Measured:   true,
		})
		ours += float64(n) / 1000
	}
	res.Rows = append(res.Rows, TCBRow{
		Runtime:    "DEFLECTION (this repo)",
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
		t.add(row.Runtime, row.Components+mark, fmt.Sprintf("%.1f", row.KLoC), row.SizeMB)
	}
	return "Table I: TCB comparison (* = counted live from this repository)\n" + t.String()
}

// TotalTrustedKLoC returns the summed DEFLECTION TCB size.
func (r *TCBResult) TotalTrustedKLoC() float64 {
	for _, row := range r.Rows {
		if row.Measured && row.Components == "TOTAL trusted" {
			return row.KLoC
		}
	}
	return 0
}
