// Command benchmark measures the deflection system end to end and layer by
// layer on four workloads: cold verification, heavy execution of
// pre-verified images, warm CCaaS sessions, and sessions churning through a
// gateway over a corpus larger than the verdict caches. See README.md.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload verify-cold --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh --seed 1 --repeat 5 --out result.json
//	bash benchmark/run.sh --workload session-churn --trace 1 --spans spans.json
//	bash benchmark/run.sh --quick
//
// A run of one workload is split over procsPerRun child processes of this
// binary, one after another, and its metrics pool their ops. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the exit code is non-zero if any op failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	repeat   int
	quick    bool
	out      string
	spans    string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run: verify-cold, exec-heavy, session-warm, session-churn or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed all inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 16, "measured seconds per run, shared by its processes")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.IntVar(&o.repeat, "repeat", 1, "runs per workload, alternating workload order; prints median and IQR")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: 1 s per run, one set-up, short warm-up")
	flag.StringVar(&o.out, "out", "", "write the JSON result with its run records to this file")
	flag.StringVar(&o.spans, "spans", "", "traced runs write their span file here")
	child := flag.String("child", "", "run one workload in this process (used by the parent)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.quick {
		o.seconds = 1
	}
	if o.seconds <= 0 || o.repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be positive")
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(childMain(*child, o))
	}
	os.Exit(parentMain(o))
}

// procsPerRun is how many child processes share one run's measured
// seconds. On the reference machine successive processes often run at speed
// levels 10–15% apart while each stays steady, so a run pools the ops of
// several processes instead of trusting one.
const procsPerRun = 4

// ---- child: one workload in one process ----

// childResult is what a child reports to its parent.
type childResult struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	SetupsS   []float64 `json:"setup_runs_s"`
	// The untraced window: the latencies of its good ops, its length, the
	// instructions those ops put through the workload's main layer, and the
	// resident-set samples taken during it.
	LatencyMS []float64          `json:"latency_ms"`
	WindowS   float64            `json:"window_s"`
	Work      float64            `json:"work"`
	RSSMB     []float64          `json:"rss_mb"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func childMain(name string, o options) int {
	res, err := runChild(name, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	return 0
}

func runChild(name string, o options) (*childResult, error) {
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload")
	}
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	// Set-up is repeated, at least minSetups times and for at least
	// minSetupTime, and its median reported, so one slow set-up does not
	// decide the metric; warm-up is excluded.
	minSetups, minSetupTime, warmup := 3, 500*time.Millisecond, time.Second
	if o.quick {
		minSetups, minSetupTime, warmup = 1, 0, 200*time.Millisecond
	}
	env := &setupEnv{seed: o.seed, cs: &compileStats{}, want: want}
	res := &childResult{}
	var inst instance
	for begin := time.Now(); inst == nil; {
		start := time.Now()
		in, err := w.setup(env)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupsS = append(res.SetupsS, time.Since(start).Seconds())
		if len(res.SetupsS) >= minSetups && time.Since(begin) >= minSetupTime {
			inst = in
		} else {
			in.close()
		}
	}

	measure := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measure /= 2 // the other half is the traced window
	}
	r := &runner{w: w, inst: inst, seed: o.seed}
	err = r.warm(warmup, false)
	var untraced *window
	var rss []float64
	if err == nil {
		sampler := startRSS()
		untraced = r.run(measure, nil)
		rss = sampler.finish()
	}
	inst.close()
	if err != nil {
		return nil, err
	}
	for _, s := range untraced.good() {
		res.LatencyMS = append(res.LatencyMS, ms(s.lat))
		res.Work += float64(s.res.insts) + float64(s.res.decoded)
	}
	res.WindowS = untraced.elapsed().Seconds()
	res.RSSMB = rss
	res.Attempted, res.Failed, res.Errors = r.attempted, r.failed, r.errs

	if o.trace {
		layers, err := tracedWindow(w, env, o, warmup, measure, untraced, res)
		if err != nil {
			return nil, err
		}
		res.PerLayer = layers
	}
	return res, nil
}

// tracedWindow sets the workload up again with span collectors passed into
// the program, and measures the per-layer metrics over one traced window.
func tracedWindow(w workload, env *setupEnv, o options, warmup, measure time.Duration, untraced *window, res *childResult) (map[string]float64, error) {
	env.traced = true
	inst, err := w.setup(env)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer inst.close()
	r := &runner{w: w, inst: inst, seed: o.seed}
	defer func() {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Errors = append(res.Errors, r.errs...)
	}()
	if err := r.warm(warmup, true); err != nil {
		return nil, err
	}
	tel := inst.telemetry()
	rec := newRecorder()
	before := readProc(tel)
	win := r.run(measure, rec)
	after := readProc(tel)
	nBackends := 0
	if tel != nil {
		nBackends = len(tel.backends)
		for _, c := range tel.spans {
			rec.importSpans(c.Snapshot(0))
		}
	}
	rec.finish()
	if o.spans != "" {
		if err := rec.writeFile(o.spans, w.name, o.seed, win.start); err != nil {
			return nil, err
		}
	}
	return layerMetrics(layerInput{
		rec: rec, traced: win, untraced: untraced,
		before: before, after: after, nBackends: nBackends,
		table: &r.table, cs: env.cs, open: w.rate > 0,
	}), nil
}

// ---- parent: child processes, records, output ----

// runRecord is one run of one workload with everything needed to compare
// it with another: the seed, the workload, the window and the machine.
type runRecord struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Repeat     int       `json:"repeat"`
	Traced     bool      `json:"traced"`
	Seconds    float64   `json:"seconds"`
	Processes  int       `json:"processes"`
	Started    time.Time `json:"started"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	CPUModel   string    `json:"cpu_model"`
	GoVersion  string    `json:"go_version"`
	Revision   string    `json:"revision"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	FailRatio  float64   `json:"fail_ratio"`
	Errors     []string  `json:"errors,omitempty"`
	// Samples counts the good ops of the untraced windows, WindowS their
	// total length.
	Samples   int     `json:"samples"`
	WindowS   float64 `json:"window_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"` // the largest getrusage maxrss of the processes
	// EndToEnd pools the processes' untraced windows; each PerLayer value
	// is the median over the processes' traced windows.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

func parentMain(o options) int {
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(o.workload); !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	host := hostRecord()
	var runs []runRecord
	for rep := 0; rep < o.repeat; rep++ {
		order := slices.Clone(names)
		if rep%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			rr := host
			rr.Workload, rr.Seed, rr.Repeat, rr.Traced, rr.Seconds = name, o.seed, rep, o.trace, o.seconds
			rr.Started = time.Now().UTC()
			spans := o.spans
			if spans != "" && (len(names) > 1 || o.repeat > 1) {
				ext := filepath.Ext(spans)
				spans = fmt.Sprintf("%s.%s.%d%s", strings.TrimSuffix(spans, ext), name, rep, ext)
			}
			if err := runWorkload(&rr, o, spans); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			printRun(&rr, o)
			runs = append(runs, rr)
		}
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	summary := summarize(runs, names, defs)
	if o.repeat > 1 {
		printSummary(summary, names, defs)
	}
	if o.out != "" {
		if err := writeResult(o.out, runs, summary); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}

	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: make(map[string]map[string]any)}
	for _, rr := range runs {
		final.Attempted += rr.Attempted
		final.Failed += rr.Failed
	}
	final.Correct = final.Failed == 0
	for _, name := range names {
		for _, d := range defs {
			key := d.name
			if len(names) > 1 {
				key = name + "/" + d.name
			}
			final.Metrics[key] = map[string]any{"value": summary[name][d.name].Median, "unit": d.unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in procsPerRun child processes, one after
// another, and fills rr. Only the first process writes the span file.
func runWorkload(rr *runRecord, o options, spans string) error {
	rr.Processes = procsPerRun
	if o.quick {
		rr.Processes = 1
	}
	var kids []childResult
	for k := 0; k < rr.Processes; k++ {
		c, peak, err := runChildProcess(rr.Workload, o, o.seconds/float64(rr.Processes), spans)
		if err != nil {
			return err
		}
		spans = ""
		kids = append(kids, c)
		rr.PeakRSSMB = max(rr.PeakRSSMB, peak)
		rr.Attempted += c.Attempted
		rr.Failed += c.Failed
		rr.Errors = append(rr.Errors, c.Errors...)
		rr.Samples += len(c.LatencyMS)
		rr.WindowS += c.WindowS
	}
	if rr.Attempted > 0 {
		rr.FailRatio = float64(rr.Failed) / float64(rr.Attempted)
	}
	rr.EndToEnd = endToEndMetrics(kids)
	if o.trace {
		rr.PerLayer = make(map[string]float64)
		for _, d := range perLayer {
			xs := make([]float64, len(kids))
			for i, c := range kids {
				xs[i] = c.PerLayer[d.name]
			}
			rr.PerLayer[d.name] = median(xs)
		}
	}
	return nil
}

// runChildProcess runs one process of a run, measuring for seconds, and
// returns its result and peak resident set.
func runChildProcess(workload string, o options, seconds float64, spans string) (childResult, float64, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	args := []string{
		"-child", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return res, 0, fmt.Errorf("child: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return res, 0, fmt.Errorf("child result: %w", err)
	}
	var peak float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, peak, nil
}

func printRun(rr *runRecord, o options) {
	fmt.Printf("%s seed=%d run=%d processes=%d attempted=%d failed=%d fail_ratio=%g samples=%d window=%.2fs peak_rss=%.1fMiB\n",
		rr.Workload, rr.Seed, rr.Repeat+1, rr.Processes, rr.Attempted, rr.Failed, rr.FailRatio, rr.Samples, rr.WindowS, rr.PeakRSSMB)
	for _, e := range rr.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	for _, d := range endToEnd {
		fmt.Printf("  %-32s %14.4f %s\n", d.name, rr.EndToEnd[d.name], d.unit)
	}
	if o.trace {
		for _, d := range perLayer {
			fmt.Printf("  %-32s %14.4f %s\n", d.name, rr.PerLayer[d.name], d.unit)
		}
	}
}

// stat is one metric's distribution over repeated runs.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(runs []runRecord, names []string, defs []metricDef) map[string]map[string]stat {
	out := make(map[string]map[string]stat)
	for _, name := range names {
		out[name] = make(map[string]stat)
		for _, d := range defs {
			var xs []float64
			for _, rr := range runs {
				if rr.Workload != name {
					continue
				}
				if v, ok := rr.EndToEnd[d.name]; ok {
					xs = append(xs, v)
				} else {
					xs = append(xs, rr.PerLayer[d.name])
				}
			}
			q1, q3 := quartiles(xs)
			out[name][d.name] = stat{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
		}
	}
	return out
}

func printSummary(summary map[string]map[string]stat, names []string, defs []metricDef) {
	fmt.Println("summary: median [q1, q3] (IQR as a share of the median) over repeats")
	for _, name := range names {
		fmt.Println(name)
		for _, d := range defs {
			s := summary[name][d.name]
			spread := 0.0
			if s.Median != 0 {
				spread = (s.Q3 - s.Q1) / s.Median
			}
			fmt.Printf("  %-32s %14.4f %s [%.4f, %.4f] iqr=%.1f%% n=%d\n", d.name, s.Median, d.unit, s.Q1, s.Q3, spread*100, s.N)
		}
	}
}

func writeResult(path string, runs []runRecord, summary map[string]map[string]stat) error {
	b, err := json.MarshalIndent(struct {
		Runs    []runRecord                `json:"runs"`
		Summary map[string]map[string]stat `json:"summary"`
	}{runs, summary}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// hostRecord describes the machine and the build.
func hostRecord() runRecord {
	rr := runRecord{
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		NumCPU:     goruntime.NumCPU(),
		GoVersion:  goruntime.Version(),
		CPUModel:   "unknown",
		Revision:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				rr.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The revision is stamped at build time when the source is a git
	// checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			rr.Revision = rev + dirty
		}
	}
	return rr
}
