package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"deflection/internal/apps"
	"deflection/internal/lint"
	"deflection/internal/nbench"
	"deflection/internal/policy"
)

func TestTableI(t *testing.T) {
	res, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	total := res.TotalTrustedKLoC()
	if total <= 0 {
		t.Fatal("no trusted LoC counted")
	}
	// The paper's point: the in-enclave TCB is an order of magnitude
	// smaller than libOS runtimes (their smallest published row is 22
	// kLoC for a single component).
	if total > 15 {
		t.Errorf("trusted TCB = %.1f kLoC, larger than expected", total)
	}
	if !strings.Contains(res.String(), "DEFLECTION") {
		t.Error("render missing our row")
	}

	// The counted rows are exactly the packages the TCB lint walks, less
	// the hardware models: one trusted set, counted honestly.
	rep, err := lint.Check(lint.DefaultConfig("../.."))
	if err != nil {
		t.Fatal(err)
	}
	hardware := make(map[string]bool)
	for _, pkg := range lint.HardwareModels {
		hardware[pkg] = true
	}
	var want []string
	for _, path := range rep.Packages {
		if pkg := strings.TrimPrefix(path, rep.Module+"/"); !hardware[pkg] {
			want = append(want, pkg)
		}
	}
	var got []string
	for _, row := range res.Rows {
		if row.Counted {
			got = append(got, row.Components)
		}
		if row.Components == "TOTAL trusted" && row.KLoC != total {
			t.Errorf("TOTAL trusted row = %v, counted rows sum to %v", row.KLoC, total)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("Table I counts %v, the lint walks %v (less hardware models)", got, want)
	}
	if !slices.Contains(got, "internal/obj") {
		t.Error("Table I does not count internal/obj, the wire-format parser")
	}
	for _, pkg := range lint.HardwareModels {
		if slices.Contains(got, pkg) {
			t.Errorf("hardware model %s summed into the trusted total", pkg)
		}
	}
}

func TestTableIIQuick(t *testing.T) {
	res, err := TableII(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		prev := -1.0
		for i, ov := range row.Overheads {
			if ov < 0 {
				t.Errorf("%s setting %d: negative overhead %.3f", row.Program, i, ov)
			}
			if ov < prev-0.005 { // allow sub-noise inversions
				t.Errorf("%s: overheads not monotone: %v", row.Program, row.Overheads)
			}
			prev = ov
		}
	}
	if res.GeoMeanP1P6 <= res.GeoMeanP1P5 {
		t.Error("P6 must add overhead on average")
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestFig7Quick(t *testing.T) {
	res, err := Fig7([]int64{60, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[1].BaseInsts <= res.Points[0].BaseInsts {
		t.Error("alignment work must grow with input length")
	}
	if res.MaxOverhead(3) <= 0 {
		t.Error("P1-P6 overhead must be positive")
	}
}

func TestFig8Quick(t *testing.T) {
	res, err := Fig8([]int64{1000, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[1].BaseMs <= res.Points[0].BaseMs {
		t.Errorf("generation cost must grow: %+v", res.Points)
	}
}

func TestFig9Quick(t *testing.T) {
	res, err := Fig9([]int64{500, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if s := res.String(); !strings.Contains(s, "records") {
		t.Error("render missing axis")
	}
}

func TestFig10Quick(t *testing.T) {
	res, err := Fig10([]int{25, 200}, 32<<10, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	low, high := res.Points[0], res.Points[1]
	// Past the worker count, response time grows sharply.
	if high.BaseResponse < 2*low.BaseResponse {
		t.Errorf("no saturation: %v vs %v", low.BaseResponse, high.BaseResponse)
	}
	// Instrumentation costs response time at every level.
	for _, p := range res.Points {
		if p.ResponseOverhead <= 0 {
			t.Errorf("clients=%d: non-positive overhead %.3f", p.Clients, p.ResponseOverhead)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11(nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	// Paper shape: Graphene wins at small files...
	if first.GrapheneMBs <= first.DeflectMBs {
		t.Errorf("at %d bytes Graphene %.1f should beat DEFLECTION %.1f",
			first.FileSize, first.GrapheneMBs, first.DeflectMBs)
	}
	// ...DEFLECTION overtakes as size grows...
	if res.CrossoverSize == 0 {
		t.Fatal("no crossover found")
	}
	if last.DeflectMBs <= last.GrapheneMBs || last.DeflectMBs <= last.OcclumMBs {
		t.Error("DEFLECTION must win at 10MB")
	}
	// ...reaching roughly 77% of native (accept 60-90%).
	if res.LargeFileNativeShare < 0.60 || res.LargeFileNativeShare > 0.92 {
		t.Errorf("native share = %.2f, outside plausible band", res.LargeFileNativeShare)
	}
}

func TestColoc(t *testing.T) {
	res := Coloc(20000)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.AlphaAnalytic > 1e-3 || row.BetaAnalytic > 1e-4 {
			t.Errorf("%s: error rates too high: %+v", row.Processor, row)
		}
	}
}

func TestMicro(t *testing.T) {
	res, err := Micro()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.LoadVerify <= 0 || row.LoadVerify > 2*time.Second {
			t.Errorf("%s: load+verify = %v, outside quick-turnaround band", row.Name, row.LoadVerify)
		}
		if row.StoreGuards == 0 {
			t.Errorf("%s: no store guards verified", row.Name)
		}
		var sum time.Duration
		for _, d := range row.Stages {
			sum += d
		}
		if sum != row.TraceTotal || sum <= 0 {
			t.Errorf("%s: stage columns sum to %v, trace total %v", row.Name, sum, row.TraceTotal)
		}
	}
}

func TestAnnotCostAblation(t *testing.T) {
	res, err := AnnotCostAblation(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.FlatOv <= row.DiscountedOv {
			t.Errorf("%s: flat %.3f should exceed discounted %.3f", row.Program, row.FlatOv, row.DiscountedOv)
		}
		if row.FlatOv < 2*row.DiscountedOv {
			t.Errorf("%s: flat model should inflate overhead at least 2x, got %.1fx",
				row.Program, row.FlatOv/row.DiscountedOv)
		}
	}
}

func TestQSweep(t *testing.T) {
	res, err := QSweep([]int{5, 20, 50}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Tighter q means more static checks and more overhead.
	if !(res.Rows[0].AEXChecks > res.Rows[1].AEXChecks && res.Rows[1].AEXChecks > res.Rows[2].AEXChecks) {
		t.Errorf("static check counts not decreasing in q: %+v", res.Rows)
	}
	if !(res.Rows[0].Overhead > res.Rows[1].Overhead && res.Rows[1].Overhead > res.Rows[2].Overhead) {
		t.Errorf("overheads not decreasing in q: %+v", res.Rows)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

// TestSweep pins the base-once sweep: each setting's overhead is its
// cycles over the one baseline run's, and a run whose exit value departs
// from the baseline's fails the sweep.
func TestSweep(t *testing.T) {
	k, ok := nbench.KernelByName("NUMERIC SORT")
	if !ok {
		t.Fatal("kernel missing")
	}
	var runs int
	run := kernelRun(k, true, 0)
	counted := func(rc apps.RunConfig) (*apps.Result, error) {
		runs++
		return run(rc)
	}
	base, ovs, err := columns(k.Name, counted)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1+len(settings) {
		t.Errorf("%d runs, want one baseline and %d settings", runs, len(settings))
	}
	if base.Cycles <= 0 || ovs[0] <= 0 || ovs[0] > 1 {
		t.Errorf("baseline %.0f cycles, P1 overhead %.3f: implausible", base.Cycles, ovs[0])
	}

	wrong := func(rc apps.RunConfig) (*apps.Result, error) {
		res, err := run(rc)
		if err == nil && rc.Policies != policy.SetNone {
			res.Exit++
		}
		return res, err
	}
	if _, _, err := columns(k.Name, wrong); err == nil || !strings.Contains(err.Error(), "want") {
		t.Errorf("exit mismatch not reported: %v", err)
	}
}

func TestTenantOverheadQuick(t *testing.T) {
	res, err := TenantOverhead(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 150 {
		t.Errorf("iters = %d, want 150 in quick mode", res.Iters)
	}
	if res.Base <= 0 || res.Admitted <= 0 {
		t.Errorf("non-positive session medians: base %v, admitted %v", res.Base, res.Admitted)
	}
	if res.Decision <= 0 {
		t.Errorf("admission decision time not recorded: %v", res.Decision)
	}
	if !strings.Contains(res.String(), "bare admission decision") {
		t.Error("render missing the decision row")
	}
}

func TestPassCostQuick(t *testing.T) {
	for _, e := range passCosts {
		t.Run(e.name, func(t *testing.T) {
			res, err := PassCost(e.name, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(e.apps)+len(nbench.Kernels()) {
				t.Fatalf("rows = %d, want %d apps + %d kernels", len(res.Rows), len(e.apps), len(nbench.Kernels()))
			}
			for i, row := range res.Rows {
				app := i < len(e.apps)
				s := row.Stats
				switch e.name {
				case "cfa":
					if row.Pass <= 0 || row.Pass > row.Verify {
						t.Errorf("%s: pass %v, verify %v, want 0 < pass <= verify", row.Name, row.Pass, row.Verify)
					}
				case "taint":
					if app && (s[0] != "2" || s[1] == "trivial" || s[1] == "0") {
						t.Errorf("%s: secrets=%s funcs=%s, want full analysis of 2 secrets", row.Name, s[0], s[1])
					}
					// Untagged kernels must ride the trivial fast path.
					if !app && (s[0] != "0" || s[1] != "trivial") {
						t.Errorf("%s: secrets=%s funcs=%s, want trivial", row.Name, s[0], s[1])
					}
				case "order":
					if app && (s[1] == "trivial" || strings.HasSuffix(s[1], "/0")) {
						t.Errorf("%s: ctxs/funcs=%s, want the full product fixpoint", row.Name, s[1])
					}
					// Protocol-free kernels must ride the trivial fast path.
					if !app && s[1] != "trivial" {
						t.Errorf("%s: order pass not trivial on a protocol-free kernel", row.Name)
					}
				}
			}
			t.Logf("aggregate %s overhead %s, apps %s (budget %.0f%%)", e.name, pct(res.Overhead()), pct(res.AppsOverhead()), e.budget*100)
			out := res.String()
			if !strings.Contains(out, e.title) {
				t.Error("render missing title")
			}
			// The analysed apps' aggregate is reported on its own line,
			// next to the all-binary aggregate.
			appsLine := fmt.Sprintf("analysed apps (%d) aggregate overhead %s\n", len(e.apps), pct(res.AppsOverhead()))
			if got := strings.Contains(out, appsLine); got != (len(e.apps) > 0) {
				t.Errorf("apps aggregate line present = %v, want %v:\n%s", got, len(e.apps) > 0, out)
			}
			if !strings.Contains(out, "aggregate overhead "+pct(res.Overhead())) {
				t.Error("render missing the all-binary aggregate")
			}
			// The budget is judged on the analysed apps alone.
			if e.budget > 0 {
				verdict := "within"
				if res.AppsOverhead() > e.budget {
					verdict = "OVER"
				}
				if want := fmt.Sprintf("analysed apps %s the +%.0f%% budget", verdict, e.budget*100); !strings.Contains(out, want) {
					t.Errorf("render lacks %q:\n%s", want, out)
				}
			}
		})
	}
}
