package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deflection/internal/obs"
)

// metricDef is one metric as BENCHMARK.json names it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are what a user of the system sees; every workload reports all
// of them from its untraced window.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"minst_per_s", "Minst/s", "higher"},
	{"rss_mb", "MiB", "lower"},
}

// perLayer come from the traced window. Timings are p50 per op over the
// ops that reach the layer; a layer a workload never reaches reads 0.
var perLayer = []metricDef{
	{"enclave.new_ms", "ms", "lower"},
	{"runtime.receive_binary_ms", "ms", "lower"},
	{"runtime.install_image_ms", "ms", "lower"},
	{"obj.parse_ms", "ms", "lower"},
	{"loader.load_ms", "ms", "lower"},
	{"loader.rewrite_ms", "ms", "lower"},
	{"disasm.disasm_ms", "ms", "lower"},
	{"disasm.insts_per_op", "count", "lower"},
	{"verifier.templates_ms", "ms", "lower"},
	{"verifier.text_kib_per_busy_s", "KiB/s", "higher"},
	{"verifier.reject_correct_ratio", "ratio", "higher"},
	{"cfa.build_ms", "ms", "lower"},
	{"cfa.dominance_ms", "ms", "lower"},
	{"cfa.deadbyte_ms", "ms", "lower"},
	{"cfa.targets_ms", "ms", "lower"},
	{"cfa.blocks_per_op", "count", "lower"},
	{"taint.pass_ms", "ms", "lower"},
	{"order.pass_ms", "ms", "lower"},
	{"cpu.run_ms", "ms", "lower"},
	{"cpu.insts_per_op", "count", "lower"},
	{"cpu.busy_minst_per_s", "Minst/s", "higher"},
	{"cpu.aex_per_op", "count", "lower"},
	{"ccaas.dial_attest_ms", "ms", "lower"},
	{"ccaas.send_binary_ms", "ms", "lower"},
	{"ccaas.send_data_ms", "ms", "lower"},
	{"ccaas.run_rtt_ms", "ms", "lower"},
	{"ccaas.server_attest_ms", "ms", "lower"},
	{"ccaas.server_load_ms", "ms", "lower"},
	{"ccaas.server_run_ms", "ms", "lower"},
	{"ccaas.sealed_kib_per_op", "KiB", "lower"},
	{"vplane.hit_ratio", "ratio", "higher"},
	{"vplane.cold_runs", "count", "lower"},
	{"vplane.dedup_joins", "count", "higher"},
	{"vplane.evictions", "count", "lower"},
	{"vplane.queue_wait_ms", "ms", "lower"},
	{"vplane.cache_hit_ms", "ms", "lower"},
	{"vplane.verify_ms", "ms", "lower"},
	{"gateway.route_ms", "ms", "lower"},
	{"gateway.dial_ms", "ms", "lower"},
	{"gateway.backend_share_max", "ratio", "lower"},
	{"gateway.failovers", "count", "lower"},
	{"gateway.busy_rejects", "count", "lower"},
	{"compiler.compile_ms", "ms", "lower"},
	{"compiler.obj_kib", "KiB", "lower"},
	{"proc.cpu_ms_per_op", "ms", "lower"},
	{"proc.alloc_kib_per_op", "KiB", "lower"},
	{"proc.gc_cpu_fraction", "ratio", "lower"},
	{"gen.late_ms_p90", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// quantile is the q-quantile of sorted xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		m := j * (n + 1)
		k, rem := m/4, m%4
		k = min(max(k, 1), n-1)
		return s[k-1] + float64(rem)/4*(s[k]-s[k-1])
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p50ms is the median of ds in milliseconds (0 when empty).
func p50ms(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// latencyQuantiles returns p50 and p90 of the good samples in ms.
func latencyQuantiles(samples []sample) (p50, p90 float64) {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = ms(s.lat)
	}
	slices.Sort(xs)
	return quantile(xs, 0.5), quantile(xs, 0.9)
}

// endToEndMetrics pools the untraced windows of a run's processes.
func endToEndMetrics(kids []childResult) map[string]float64 {
	var lat, setups, rss []float64
	var secs, work float64
	for _, c := range kids {
		lat = append(lat, c.LatencyMS...)
		setups = append(setups, c.SetupsS...)
		rss = append(rss, c.RSSMB...)
		secs += c.WindowS
		work += c.Work
	}
	slices.Sort(lat)
	return map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      float64(len(lat)) / secs,
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p90_ms": quantile(lat, 0.9),
		// Instructions through the workload's main layer: retired by the
		// emulator, or decoded by the verifier on verify-cold.
		"minst_per_s": work / secs / 1e6,
		"rss_mb":      median(rss),
	}
}

// rssSampler reads the process's resident set every 50 ms until stopped.
// Its median is far steadier than the peak, which depends on where the
// collector happens to run relative to the 13 MiB enclave allocations.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if mb, err := residentMB(); err == nil {
					s.mb = append(s.mb, mb)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// procStats is a reading of the process's own CPU, allocation and GC use.
type procStats struct {
	cpu       time.Duration
	alloc     uint64
	gcCPU     float64
	totalCPU  float64
	snapshots []obs.Snapshot // backends then gateway
}

var procSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readProc(t *telemetry) procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	s := slices.Clone(procSamples)
	metrics.Read(s)
	p := procStats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		alloc:    s[2].Value.Uint64(),
	}
	if t != nil {
		for _, reg := range t.backends {
			p.snapshots = append(p.snapshots, reg.Snapshot())
		}
		p.snapshots = append(p.snapshots, t.gateway.Snapshot())
	}
	return p
}

// counterDelta sums a counter's growth over the given snapshot positions.
func counterDelta(before, after procStats, name string, idx ...int) float64 {
	var d int64
	for _, i := range idx {
		if i < len(after.snapshots) {
			d += after.snapshots[i].Counters[name] - before.snapshots[i].Counters[name]
		}
	}
	return float64(d)
}

// layerInput is what the per-layer metrics are computed from.
type layerInput struct {
	rec           *recorder // finished
	traced        *window
	untraced      *window
	before, after procStats
	nBackends     int
	table         *countTable
	cs            *compileStats
	open          bool
}

// isTemplate matches the verifier's per-policy template passes and the
// discipline closure. P7 and P8 never reach the recorder (doubleBilled).
func isTemplate(n string) bool {
	return strings.HasPrefix(n, stagePrefix+"policy/") || n == stagePrefix+"discipline"
}

func isVerifierBusy(n string) bool {
	return isTemplate(n) || n == stagePrefix+"disasm" || strings.HasPrefix(n, stagePrefix+"cfa/")
}

func layerMetrics(in layerInput) map[string]float64 {
	rec := in.rec
	ops := float64(len(in.traced.samples))
	p50 := func(keep func(string) bool) float64 { return p50ms(rec.opTotals(keep)) }
	stage := func(name string) float64 { return p50(named(stagePrefix + name)) }
	m := map[string]float64{
		"enclave.new_ms":         p50(named("enclave.new")),
		"obj.parse_ms":           stage("parse"),
		"loader.load_ms":         stage("load"),
		"loader.rewrite_ms":      stage("rewrite"),
		"disasm.disasm_ms":       stage("disasm"),
		"verifier.templates_ms":  p50(isTemplate),
		"cfa.build_ms":           stage("cfa/build"),
		"cfa.dominance_ms":       stage("cfa/dominance"),
		"cfa.deadbyte_ms":        stage("cfa/deadbyte"),
		"cfa.targets_ms":         stage("cfa/targets"),
		"taint.pass_ms":          stage("cfa/taint"),
		"order.pass_ms":          stage("cfa/order"),
		"ccaas.dial_attest_ms":   p50(named("ccaas.dial_attest")),
		"ccaas.send_binary_ms":   p50(named("ccaas.send_binary")),
		"ccaas.send_data_ms":     p50(named("ccaas.send_data")),
		"ccaas.run_rtt_ms":       p50(named("ccaas.run_rtt")),
		"ccaas.server_attest_ms": p50(named("session/attest")),
		"ccaas.server_load_ms":   p50(named("session/load")),
		"ccaas.server_run_ms":    p50(named("session/run")),
		"vplane.queue_wait_ms":   p50(named("vplane/queue_wait")),
		"vplane.cache_hit_ms":    p50(named("vplane/cache_hit")),
		"vplane.verify_ms":       p50(named("vplane/verify")),
		"gateway.route_ms":       p50(named("gateway/route")),
		"gateway.dial_ms":        p50(named("gateway/dial")),
	}

	// receive_binary: timed around the call on verify-cold; on the session
	// workloads the plane's cold path exports only the stage spans.
	if d := rec.opTotals(named("runtime.receive_binary")); len(d) > 0 {
		m["runtime.receive_binary_ms"] = p50ms(d)
	} else {
		m["runtime.receive_binary_ms"] = p50(func(n string) bool { return strings.HasPrefix(n, stagePrefix) })
	}
	// install_image: timed around the call on exec-heavy; on a cache-hit
	// session it is the server's load phase less the plane's lookup.
	if d := rec.opTotals(named("runtime.install_image")); len(d) > 0 {
		m["runtime.install_image_ms"] = p50ms(d)
	} else {
		m["runtime.install_image_ms"] = p50ms(hitInstalls(rec))
	}
	// cpu: the emulator run, timed around Run or by the server's run phase.
	cpuRun := rec.opTotals(named("cpu.run", "session/run"))
	m["cpu.run_ms"] = p50ms(cpuRun)
	var retired float64
	for _, s := range in.traced.good() {
		retired += float64(s.res.insts)
	}
	if busy := sum(cpuRun); busy > 0 {
		m["cpu.busy_minst_per_s"] = retired / busy.Seconds() / 1e6
	}

	// Verifier throughput over the ops whose verification ran to the end.
	var textBytes float64
	var busy time.Duration
	for _, op := range rec.opsWith(stagePrefix + "disasm") {
		for _, s := range op {
			if isVerifierBusy(s.name) {
				busy += s.dur()
			}
			if s.name == stagePrefix+"load" {
				textBytes += float64(attr(s.attrs, "text_bytes"))
			}
		}
	}
	if busy > 0 {
		m["verifier.text_kib_per_busy_s"] = textBytes / 1024 / busy.Seconds()
	}
	var rejects, rejectsOK float64
	for _, s := range in.traced.samples {
		if s.res.reject {
			rejects++
			if s.err == nil {
				rejectsOK++
			}
		}
	}
	if rejects > 0 {
		m["verifier.reject_correct_ratio"] = rejectsOK / rejects
	}

	// Exact counts: the mean over the corpus's inputs, each pinned by the
	// count table. Where verification happens only on cache misses, the
	// decoded work per op is read from the plane's stage spans instead.
	tab := in.table.m
	m["cpu.insts_per_op"] = meanOver(tab, func(c counts) float64 { return float64(c.insts) })
	m["cpu.aex_per_op"] = meanOver(tab, func(c counts) float64 { return float64(c.aex) })
	m["disasm.insts_per_op"] = meanOver(tab, func(c counts) float64 { return float64(c.decoded) })
	m["cfa.blocks_per_op"] = meanOver(tab, func(c counts) float64 { return float64(c.blocks) })
	if m["disasm.insts_per_op"] == 0 && ops > 0 {
		m["disasm.insts_per_op"] = float64(rec.attrSum(stagePrefix+"disasm", "instructions")) / ops
		m["cfa.blocks_per_op"] = float64(rec.attrSum(stagePrefix+"cfa/build", "blocks")) / ops
	}

	// The program's own counters over the traced window.
	b, a := in.before, in.after
	backends := make([]int, in.nBackends)
	for i := range backends {
		backends[i] = i
	}
	gw := in.nBackends
	if ops > 0 {
		m["ccaas.sealed_kib_per_op"] = counterDelta(b, a, "ccaas_bytes_sealed_total", backends...) / 1024 / ops
		m["vplane.cold_runs"] = counterDelta(b, a, "vplane_verify_runs_total", backends...) / ops
		m["vplane.dedup_joins"] = counterDelta(b, a, "vplane_dedup_joins_total", backends...) / ops
		m["vplane.evictions"] = counterDelta(b, a, "vplane_cache_evictions_total", backends...) / ops
		m["proc.cpu_ms_per_op"] = ms(a.cpu-b.cpu) / ops
		m["proc.alloc_kib_per_op"] = float64(a.alloc-b.alloc) / 1024 / ops
	}
	hits := counterDelta(b, a, "vplane_cache_hits_total", backends...)
	if lookups := hits + counterDelta(b, a, "vplane_cache_misses_total", backends...); lookups > 0 {
		m["vplane.hit_ratio"] = hits / lookups
	}
	var total, most float64
	for i := range backends {
		n := counterDelta(b, a, "ccaas_sessions_accepted_total", i)
		total += n
		most = math.Max(most, n)
	}
	if total > 0 {
		m["gateway.backend_share_max"] = most / total
	}
	m["gateway.failovers"] = counterDelta(b, a, "gateway_failovers_total", gw)
	m["gateway.busy_rejects"] = counterDelta(b, a, "gateway_sessions_rejected_busy_total", gw)
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		m["proc.gc_cpu_fraction"] = (a.gcCPU - b.gcCPU) / cpu
	}

	m["compiler.compile_ms"] = p50ms(in.cs.durs)
	var objBytes float64
	for _, n := range in.cs.bytes {
		objBytes += float64(n)
	}
	if len(in.cs.bytes) > 0 {
		m["compiler.obj_kib"] = objBytes / float64(len(in.cs.bytes)) / 1024
	}

	if in.open {
		late := make([]float64, len(in.traced.samples))
		for i, s := range in.traced.samples {
			late[i] = ms(s.late)
		}
		slices.Sort(late)
		m["gen.late_ms_p90"] = quantile(late, 0.9)
	}
	tp50, _ := latencyQuantiles(in.traced.good())
	up50, _ := latencyQuantiles(in.untraced.good())
	if up50 > 0 {
		m["trace.overhead_ratio"] = (tp50 - up50) / up50
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // the workload never reaches the layer
		}
	}
	return m
}

// hitInstalls returns, per cache-hit session, the server's load phase less
// the plane's cache lookup: the image install into the session enclave.
func hitInstalls(rec *recorder) []time.Duration {
	var out []time.Duration
	for _, op := range rec.opsWith("vplane/cache_hit") {
		var load, hit time.Duration
		for _, s := range op {
			switch s.name {
			case "session/load":
				load += s.dur()
			case "vplane/cache_hit":
				hit += s.dur()
			}
		}
		if load > 0 {
			out = append(out, load-hit)
		}
	}
	return out
}

// opsWith groups the spans of every op that has a span named name.
func (r *recorder) opsWith(name string) [][]*span {
	byOp := make(map[int][]*span)
	has := make(map[int]bool)
	for i := range r.spans {
		s := &r.spans[i]
		byOp[s.op] = append(byOp[s.op], s)
		if s.name == name {
			has[s.op] = true
		}
	}
	var out [][]*span
	for op, spans := range byOp {
		if has[op] {
			out = append(out, spans)
		}
	}
	return out
}

func attr(attrs []obs.Attr, key string) int64 {
	for _, a := range attrs {
		if a.Key == key {
			switch v := a.Val.(type) {
			case int:
				return int64(v)
			case int64:
				return v
			}
		}
	}
	return 0
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// meanOver averages f over the table's inputs where f is non-zero.
func meanOver(tab map[string]counts, f func(counts) float64) float64 {
	var s, n float64
	for _, c := range tab {
		if v := f(c); v != 0 {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / n
}
