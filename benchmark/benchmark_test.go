package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deflection/internal/enclave"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

var update = flag.Bool("update", false, "rewrite testdata/expected.json from direct runs")

// runDirect executes j in a fresh bootstrap, outside any session, the way
// the workload that uses it runs it.
func runDirect(t *testing.T, j job, pols policy.Set, rc runtime.RunConfig) expectation {
	t.Helper()
	m := runtime.DefaultManifest()
	m.Policies = pols
	boot, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boot.ReceiveBinary(j.bin.obj); err != nil {
		t.Fatalf("%s: %v", j.key, err)
	}
	for _, in := range j.inputs {
		boot.ReceiveData(in)
	}
	res, err := boot.Run(rc)
	if err != nil {
		t.Fatalf("%s: %v", j.key, err)
	}
	outs, err := unpadAll(res.Outputs)
	if err != nil {
		t.Fatalf("%s: %v", j.key, err)
	}
	return expectation{Exit: res.CPU.ExitValue, Insts: res.CPU.Insts, Outputs: outputsDigest(outs)}
}

// TestExpectedOutputs recomputes every fixed-input job's answer outside the
// benchmark's own op paths and compares it with testdata/expected.json
// (rewritten with -update).
func TestExpectedOutputs(t *testing.T) {
	cs := &compileStats{}
	got := make(map[string]expectation)
	aex := runtime.RunConfig{AEXInterval: aexInterval, AEXSeed: 1}
	for _, name := range execKernels {
		j, err := kernelJob(cs, name)
		if err != nil {
			t.Fatal(err)
		}
		got[j.key] = runDirect(t, j, policy.SetP1P6, aex)
	}
	credit, err := compile(cs, "credit", appList[1].src, policy.SetP1P6)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{300, 600, 1200} {
		j := job{key: fmt.Sprintf("credit-%d@p1-p6", n), bin: credit, inputs: [][]byte{param(n)}}
		got[j.key] = runDirect(t, j, policy.SetP1P6, aex)
	}
	// Session jobs run on the server, which executes without injected AEXs.
	for _, a := range appList {
		if a.name == "nw" {
			continue
		}
		bin, err := compile(cs, a.name, a.src, policy.SetP1P8)
		if err != nil {
			t.Fatal(err)
		}
		j := sessionJob(a.name, 0, bin, nil)
		got[j.key] = runDirect(t, j, policy.SetP1P8, runtime.RunConfig{})
	}

	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "expected.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("expected.json has %d jobs, recomputed %d", len(want), len(got))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: recomputed %+v, expected.json has %+v", k, g, want[k])
		}
	}
}

// TestNWOracle pins the Go oracle on hand-checked alignments (match +2,
// mismatch -1, gap -2).
func TestNWOracle(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want int64
	}{
		{"ACGT", "ACGT", 8}, // four matches
		{"A", "T", -1},      // one mismatch beats two gaps
		{"AC", "A", 0},      // a match and a gap
		{"AAAA", "TT", -6},  // two mismatches and two gaps
		{"GA", "AG", -2},    // two mismatches; gap-match-gap also scores -2
	} {
		if got := nwScore([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("nwScore(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestLayerAccounting: on verify-cold, the per-layer self times (enclave
// creation plus every receive_binary stage) account for enclave creation
// plus receive_binary within 5%. The P7/P8 audit entries, which repeat the
// taint and order pass times, must not be counted again.
func TestLayerAccounting(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("verify-cold")
	inst, err := w.setup(&setupEnv{seed: 3, cs: &compileStats{}, want: want})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	r := &runner{w: w, inst: inst, seed: 3}
	if err := r.warm(100*time.Millisecond, true); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	r.run(time.Second, rec)
	if r.failed > 0 {
		t.Fatalf("failed ops: %v", r.errs)
	}
	rec.finish()

	var layers, whole time.Duration
	for _, op := range rec.opsWith(stagePrefix + "disasm") { // accepted verifications
		for _, s := range op {
			switch {
			case s.name == "enclave.new":
				layers += s.self
				whole += s.dur()
			case s.name == "runtime.receive_binary":
				whole += s.dur()
			case strings.HasPrefix(s.name, stagePrefix):
				if doubleBilled[strings.TrimPrefix(s.name, stagePrefix)] {
					t.Fatalf("double-billed span %s recorded", s.name)
				}
				layers += s.self
			}
		}
	}
	if whole == 0 {
		t.Fatal("no accepted verification traced")
	}
	if ratio := float64(layers) / float64(whole); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("layer self times sum to %.3f of enclave.new + receive_binary, want within 5%%", ratio)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// resultJSON is the part of the -out file the smoke test reads.
type resultJSON struct {
	Runs []runRecord `json:"runs"`
}

// TestQuickSmoke runs every workload in -quick mode through the real
// command, traced, and checks that every metric BENCHMARK.json names is
// emitted, that no op failed, and that the exact counts repeat for the
// same seed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for _, d := range append(endToEnd, perLayer...) {
		units[d.name] = d.unit
	}
	for _, m := range append(bj.EndToEnd, bj.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("BENCHMARK.json metric %s (%s): the benchmark emits unit %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, wl := range bj.Workloads {
		if _, ok := workloadByName(wl.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", wl.Name)
		}
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(workload, out string) []runRecord {
		cmd := exec.Command(bin, "--workload", workload, "--quick", "--seed", "7", "--trace", "1", "--out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", workload, err, stdout)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var last struct {
			Correct   bool                      `json:"correct"`
			Attempted int                       `json:"attempted"`
			Failed    int                       `json:"failed"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line: %v", workload, err)
		}
		if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, last.Correct, last.Attempted, last.Failed)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var res resultJSON
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatal(err)
		}
		return res.Runs
	}

	first := run("all", filepath.Join(dir, "all.json"))
	if len(first) != len(bj.Workloads) {
		t.Fatalf("%d runs, want one per workload", len(first))
	}
	for _, rr := range first {
		if rr.FailRatio != 0 {
			t.Errorf("%s: fail_ratio %g: %v", rr.Workload, rr.FailRatio, rr.Errors)
		}
		for _, m := range bj.EndToEnd {
			if _, ok := rr.EndToEnd[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", rr.Workload, m.Name)
			}
		}
		for _, m := range bj.PerLayer {
			if _, ok := rr.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", rr.Workload, m.Name)
			}
		}
	}
	// The exact counts depend only on the seed. verify-cold pins the
	// decoded instructions, session-warm the retired ones.
	for _, c := range []struct{ workload, metric string }{
		{"verify-cold", "disasm.insts_per_op"},
		{"session-warm", "cpu.insts_per_op"},
	} {
		again := run(c.workload, filepath.Join(dir, c.workload+".json"))
		var before float64
		for _, rr := range first {
			if rr.Workload == c.workload {
				before = rr.PerLayer[c.metric]
			}
		}
		if after := again[0].PerLayer[c.metric]; before == 0 || after != before {
			t.Errorf("%s %s: %g then %g for the same seed", c.workload, c.metric, before, after)
		}
	}
}
