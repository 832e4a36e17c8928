package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sort"
	"time"

	"deflection/attest"
	"deflection/internal/apps"
	"deflection/internal/ccaas"
	"deflection/internal/cpu"
	"deflection/internal/enclave"
	"deflection/internal/gateway"
	"deflection/internal/nbench"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
	"deflection/internal/vplane"
)

// Frozen session-churn load, calibrated once on a 2-vCPU machine. Closed
// loop through the gateway with two clients completed about 88 sessions/s.
// The open-loop rate is a third of that rather than half: with two senders
// and sessions from 2 to 60 ms, queueing at half load doubled the latency
// whenever the machine slowed by a fifth. Each backend's verdict cache
// holds 16 MiB, an eighth of the ~128 MiB of images in its half of the
// corpus, which gave a hit ratio of about 0.6. See README.md.
const (
	churnRate       = 30.0     // sessions per second
	churnCacheBytes = 16 << 20 // per backend
	churnVariants   = 64       // per app
	churnZipfS      = 1.1
)

// scheduleLen bounds how many ops one run can index; schedules wrap.
const scheduleLen = 1 << 16

// workload is one benchmark input set and the way load is applied to it.
type workload struct {
	name string
	// clients is the number of client goroutines (closed loop) or sender
	// goroutines (open loop).
	clients int
	// rate is the open-loop arrival rate in ops/s; 0 means a closed loop.
	rate  float64
	setup func(env *setupEnv) (instance, error)
}

var workloads = []workload{
	{name: "verify-cold", clients: 1, setup: setupVerifyCold},
	{name: "exec-heavy", clients: 1, setup: setupExecHeavy},
	{name: "session-warm", clients: 2, setup: setupSessionWarm},
	{name: "session-churn", clients: 2, rate: churnRate, setup: setupSessionChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupEnv is what a workload's set-up gets.
type setupEnv struct {
	seed uint64
	// traced passes span collectors into the program.
	traced bool
	cs     *compileStats
	want   map[string]expectation
}

// rng returns a generator for one purpose, so adding draws for one purpose
// never shifts another's.
func (e *setupEnv) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, stream))
}

// counts are the exact per-input work counts an op reports.
type counts struct {
	insts, aex      uint64 // retired by the CPU emulator
	decoded, blocks int    // disassembled instructions, CFG blocks (accepted verifications)
}

// opResult is what one op reports besides its latency.
type opResult struct {
	// key identifies the op's input; equal keys must report equal counts.
	key string
	counts
	reject bool // the op submitted a binary that must be rejected
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs scheduled op i; rec is nil in untraced windows.
	op(i int, rec *recorder) (opResult, error)
	// corpus is the number of distinct op keys warm-up must cover.
	corpus() int
	// telemetry is the program's own telemetry (nil without servers).
	telemetry() *telemetry
	close()
}

// telemetry is what the benchmark passed into the program and reads back.
type telemetry struct {
	backends []*obs.Registry // one per ccaas server (shared with its plane)
	gateway  *obs.Registry
	spans    []*obs.Collector
}

// newCollector returns a span collector for traced set-ups, nil otherwise.
// The ring holds tens of seconds of session-warm traffic; the collector
// drops the oldest spans first, and those are warm-up spans.
func newCollector(traced bool, role, proc string) *obs.Collector {
	if !traced {
		return nil
	}
	return obs.NewCollector(obs.CollectorConfig{Role: role, Proc: proc, Capacity: 1 << 17})
}

// ---- verify-cold ----

// verdict is the known answer for a verify-cold binary.
type verdict int

const (
	accept    verdict = iota
	orderRej          // P8 order-pass rejection after the full pipeline
	policyRej         // P0 policy-mask mismatch
)

type vcBinary struct {
	program
	want verdict
}

type verifyCold struct {
	manifest runtime.Manifest
	bins     []vcBinary
	sched    []int
}

func setupVerifyCold(env *setupEnv) (instance, error) {
	w := &verifyCold{manifest: runtime.DefaultManifest()}
	w.manifest.Policies = policy.SetP1P8
	add := func(name, src string, pols policy.Set, want verdict) error {
		p, err := compile(env.cs, name, src, pols)
		w.bins = append(w.bins, vcBinary{p, want})
		return err
	}
	for _, k := range nbench.Kernels() {
		if err := add(k.Name, k.Source, policy.SetP1P8, accept); err != nil {
			return nil, err
		}
	}
	for _, a := range appList {
		if err := add(a.name, a.src, policy.SetP1P8, accept); err != nil {
			return nil, err
		}
		if err := add(a.name+"+permissive", permissiveProtocol+a.src, policy.SetP1P8, accept); err != nil {
			return nil, err
		}
	}
	nAccept := len(w.bins)
	for _, a := range appList {
		if err := add(a.name+"+strict", strictProtocol+a.src, policy.SetP1P8, orderRej); err != nil {
			return nil, err
		}
	}
	k := nbench.Kernels()[0]
	if err := add(k.Name+"@p1-p5", k.Source, policy.SetP1P5, policyRej); err != nil {
		return nil, err
	}
	// Blocks of eight ops: seven accepted binaries drawn from repeated
	// shuffles, and one known reject at a seeded position.
	r := env.rng(1)
	acc := cycleSchedule(r, nAccept, scheduleLen)
	rej := cycleSchedule(r, len(w.bins)-nAccept, scheduleLen/8)
	w.sched = make([]int, 0, scheduleLen)
	for b := 0; len(w.sched) < scheduleLen; b++ {
		pos := r.IntN(8)
		for k := 0; k < 8; k++ {
			if k == pos {
				w.sched = append(w.sched, nAccept+rej[b])
			} else {
				w.sched = append(w.sched, acc[0])
				acc = acc[1:]
			}
		}
	}
	return w, nil
}

func (w *verifyCold) corpus() int           { return len(w.bins) }
func (w *verifyCold) telemetry() *telemetry { return nil }
func (w *verifyCold) close()                {}

func (w *verifyCold) op(i int, rec *recorder) (opResult, error) {
	b := &w.bins[w.sched[i%scheduleLen]]
	res := opResult{key: b.name, reject: b.want != accept}
	t0 := time.Now()
	boot, err := runtime.New(enclave.DefaultConfig(), w.manifest)
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	rep, err := boot.ReceiveBinary(b.obj)
	t2 := time.Now()
	rec.add(i, "enclave.new", t0, t1)
	rec.add(i, "runtime.receive_binary", t1, t2)
	if tr := boot.LastTrace(); tr != nil {
		rec.addStages(i, tr.Begin(), tr.Spans())
	}

	switch b.want {
	case accept:
		if err != nil {
			return res, fmt.Errorf("%s rejected: %w", b.name, err)
		}
		if rep.BinaryHash != sha256.Sum256(b.obj) {
			return res, fmt.Errorf("%s: load report carries the wrong binary hash", b.name)
		}
		res.decoded = rep.Stats.Instructions
		for _, sp := range rep.Trace.Spans() {
			if sp.Name == "cfa/build" {
				res.blocks = int(attr(sp.Attrs, "blocks"))
			}
		}
	case orderRej:
		var v *verifier.Violation
		if !errors.As(err, &v) || v.Pass != "order" || v.Policy != policy.P8 {
			return res, fmt.Errorf("%s: verdict %v, want a P8 order-pass rejection", b.name, err)
		}
	case policyRej:
		if !errors.Is(err, runtime.ErrPolicyMismatch) {
			return res, fmt.Errorf("%s: verdict %v, want a policy mismatch", b.name, err)
		}
	}
	return res, nil
}

// ---- exec-heavy ----

type execHeavy struct {
	manifest runtime.Manifest
	jobs     []job
	images   map[string]*runtime.Image
	want     map[string]expectation
	sched    []int
}

func setupExecHeavy(env *setupEnv) (instance, error) {
	w := &execHeavy{manifest: runtime.DefaultManifest(), images: make(map[string]*runtime.Image), want: env.want}
	w.manifest.Policies = policy.SetP1P6
	for _, name := range execKernels {
		j, err := kernelJob(env.cs, name)
		if err != nil {
			return nil, err
		}
		w.jobs = append(w.jobs, j)
	}
	credit, err := compile(env.cs, "credit", apps.CreditSource, policy.SetP1P6)
	if err != nil {
		return nil, err
	}
	for _, n := range []int64{300, 600, 1200} {
		w.jobs = append(w.jobs, job{key: fmt.Sprintf("credit-%d@p1-p6", n), bin: credit, inputs: [][]byte{param(n)}})
	}
	nw, err := compile(env.cs, "nw", apps.NWSource, policy.SetP1P6)
	if err != nil {
		return nil, err
	}
	// Eight alignments of seeded sequences with lengths stratified over
	// 100–200. The lengths are fixed: the cost of an alignment follows its
	// length, and seeded lengths moved the median op between jobs.
	r := env.rng(2)
	for i := 0; i < 8; i++ {
		n := 106 + i*100/8
		w.jobs = append(w.jobs, nwJob(fmt.Sprintf("nw-%d#%d", n, i), nw, n, n, r))
	}

	// Verify each binary once and keep its image: ops install, never verify.
	for _, j := range w.jobs {
		if w.images[j.bin.name] != nil {
			continue
		}
		boot, err := runtime.New(enclave.DefaultConfig(), w.manifest)
		if err != nil {
			return nil, err
		}
		rep, err := boot.ReceiveBinary(j.bin.obj)
		if err != nil {
			return nil, fmt.Errorf("verifying %s: %w", j.bin.name, err)
		}
		img, err := boot.SnapshotImage(rep)
		if err != nil {
			return nil, err
		}
		w.images[j.bin.name] = img
	}
	w.sched = cycleSchedule(r, len(w.jobs), scheduleLen)
	return w, nil
}

func (w *execHeavy) corpus() int           { return len(w.jobs) }
func (w *execHeavy) telemetry() *telemetry { return nil }
func (w *execHeavy) close()                {}

func (w *execHeavy) op(i int, rec *recorder) (opResult, error) {
	j := &w.jobs[w.sched[i%scheduleLen]]
	res := opResult{key: j.key}
	t0 := time.Now()
	boot, err := runtime.New(enclave.DefaultConfig(), w.manifest)
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	if _, err := boot.InstallImage(w.images[j.bin.name]); err != nil {
		return res, err
	}
	t2 := time.Now()
	for _, in := range j.inputs {
		boot.ReceiveData(in)
	}
	run, err := boot.Run(runtime.RunConfig{AEXInterval: aexInterval, AEXSeed: 1})
	t3 := time.Now()
	rec.add(i, "enclave.new", t0, t1)
	rec.add(i, "runtime.install_image", t1, t2)
	rec.add(i, "cpu.run", t2, t3)
	if err != nil {
		return res, err
	}
	if run.CPU.Status != cpu.StatusHalt {
		return res, fmt.Errorf("%s: %v (trap %v)", j.key, run.CPU.Status, run.CPU.Trap)
	}
	res.insts, res.aex = run.CPU.Insts, run.CPU.AEXCount
	outs, err := unpadAll(run.Outputs)
	if err != nil {
		return res, fmt.Errorf("%s: %w", j.key, err)
	}
	return res, checkJob(j, w.want, run.CPU.ExitValue, run.CPU.Insts, outs)
}

// ---- sessions ----

// backend is one in-process ccaas server with its verification plane.
type backend struct {
	srv   *ccaas.Server
	plane *vplane.Plane
	reg   *obs.Registry
	spans *obs.Collector
	addr  string
	done  chan error
}

func startBackend(id string, as *attest.Service, cacheBytes int64, traced bool) (*backend, error) {
	platform, err := attest.NewPlatform(id)
	if err != nil {
		return nil, err
	}
	as.Register(platform)
	b := &backend{reg: obs.NewRegistry(), spans: newCollector(traced, "backend", id), done: make(chan error, 1)}
	b.plane = vplane.New(vplane.Config{CacheBytes: cacheBytes, Metrics: b.reg, Spans: b.spans})
	b.srv, err = ccaas.NewServer(ccaas.ServerConfig{
		Platform: platform,
		Policies: policy.SetP1P8,
		Metrics:  b.reg,
		Spans:    b.spans,
		Verify:   b.plane,
	})
	if err != nil {
		b.plane.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.plane.Close()
		return nil, err
	}
	b.addr = ln.Addr().String()
	go func() { b.done <- b.srv.Serve(ln) }()
	return b, nil
}

func (b *backend) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // force-closes stragglers at the deadline
	<-b.done
	b.plane.Close()
}

// sessionClient runs one attested CCaaS session per op.
type sessionClient struct {
	as   *attest.Service
	meas [32]byte
	addr string
	// viaGateway sends the routing preamble first.
	viaGateway bool
	want       map[string]expectation
}

// sessionTimeout bounds one session; a stall counts as a failed op.
const sessionTimeout = 20 * time.Second

// run performs the full session for job j as op i.
func (c *sessionClient) run(i int, j *job, rec *recorder) (opResult, error) {
	res := opResult{key: j.key}
	t0 := time.Now()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return res, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(t0.Add(sessionTimeout))
	tid := rec.traceID(i)
	if c.viaGateway {
		route := sha256.Sum256(j.bin.obj)
		if err := gateway.WritePreambleTraced(conn, route[:], tid); err != nil {
			return res, err
		}
	}
	cl, err := ccaas.Dial(conn, c.as, c.meas, attest.RoleCodeProvider)
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	rec.add(i, "ccaas.dial_attest", t0, t1)
	if tid != 0 {
		if err := cl.SendTrace(tid); err != nil {
			return res, err
		}
		t2 := time.Now()
		rec.add(i, "ccaas.send_trace", t1, t2)
		t1 = t2
	}
	hash, _, err := cl.SendBinary(j.bin.obj)
	if err != nil {
		return res, fmt.Errorf("%s: %w", j.key, err)
	}
	t2 := time.Now()
	rec.add(i, "ccaas.send_binary", t1, t2)
	if want := sha256.Sum256(j.bin.obj); !bytes.Equal(hash, want[:]) {
		return res, fmt.Errorf("%s: verdict carries the wrong binary hash", j.key)
	}
	for _, in := range j.inputs {
		t := time.Now()
		if err := cl.SendData(in); err != nil {
			return res, err
		}
		rec.add(i, "ccaas.send_data", t, time.Now())
	}
	t3 := time.Now()
	rr, err := cl.Run()
	if err != nil {
		return res, err
	}
	t4 := time.Now()
	rec.add(i, "ccaas.run_rtt", t3, t4)
	if err := cl.Close(); err != nil {
		return res, err
	}
	rec.add(i, "ccaas.close", t4, time.Now())
	if rr.Trapped {
		return res, fmt.Errorf("%s: trapped: %s", j.key, rr.TrapReason)
	}
	res.insts = rr.Insts
	outs, err := unpadAll(rr.Outputs)
	if err != nil {
		return res, fmt.Errorf("%s: %w", j.key, err)
	}
	return res, checkJob(j, c.want, rr.Exit, rr.Insts, outs)
}

// ---- session-warm ----

type sessionWarm struct {
	be     *backend
	client *sessionClient
	jobs   []job
	sched  []int
}

func setupSessionWarm(env *setupEnv) (instance, error) {
	w := &sessionWarm{}
	r := env.rng(3)
	// One job per app, four seeded pairs for NW. Credit is left out: its
	// fixed 60 ms training run would outweigh the per-session costs.
	for _, a := range appList {
		if a.name == "credit" {
			continue
		}
		bin, err := compile(env.cs, a.name, a.src, policy.SetP1P8)
		if err != nil {
			return nil, err
		}
		n := 1
		if a.name == "nw" {
			n = 4
		}
		for k := 0; k < n; k++ {
			w.jobs = append(w.jobs, sessionJob(a.name, k, bin, r))
		}
	}
	as := attest.NewService()
	be, err := startBackend("bench-backend-0", as, 0, env.traced)
	if err != nil {
		return nil, err
	}
	w.be = be
	meas, err := be.srv.Measurement()
	if err != nil {
		be.stop()
		return nil, err
	}
	w.client = &sessionClient{as: as, meas: meas, addr: be.addr, want: env.want}
	w.sched = cycleSchedule(r, len(w.jobs), scheduleLen)
	return w, nil
}

func (w *sessionWarm) corpus() int { return len(w.jobs) }
func (w *sessionWarm) telemetry() *telemetry {
	return &telemetry{backends: []*obs.Registry{w.be.reg}, spans: []*obs.Collector{w.be.spans}}
}
func (w *sessionWarm) close() { w.be.stop() }

func (w *sessionWarm) op(i int, rec *recorder) (opResult, error) {
	return w.client.run(i, &w.jobs[w.sched[i%scheduleLen]], rec)
}

// ---- session-churn ----

type sessionChurn struct {
	bes    []*backend
	gw     *gateway.Gateway
	greg   *obs.Registry
	gspans *obs.Collector
	gdone  chan error
	client *sessionClient
	// jobs[rank] is the job of the rank-th most popular binary.
	jobs  []job
	sched []int // Zipf-drawn ranks
}

func setupSessionChurn(env *setupEnv) (instance, error) {
	w := &sessionChurn{gdone: make(chan error, 1)}
	// Rank r belongs to app r%4, so every seed gives each app the same
	// share of traffic (seqgen 37%, credit 25%, httpsrv 20%, nw 18%). The
	// tag mixes in the seed, so binary digests, and with them the gateway's
	// placement, change with the seed.
	w.jobs = make([]job, len(appList)*churnVariants)
	for ai, a := range appList {
		for v := 0; v < churnVariants; v++ {
			tag := int(env.seed%1_000_000)*1000 + ai*churnVariants + v
			bin, err := compile(env.cs, fmt.Sprintf("%s#%d", a.name, v), variantTag(a.src, tag), policy.SetP1P8)
			if err != nil {
				return nil, err
			}
			// A fresh generator per variant: every NW variant aligns the
			// same pair, so the four app jobs are the whole exact-count
			// corpus.
			w.jobs[v*len(appList)+ai] = sessionJob(a.name, 0, bin, env.rng(4))
		}
	}

	as := attest.NewService()
	var addrs []string
	for k := 0; k < 2; k++ {
		be, err := startBackend(fmt.Sprintf("bench-backend-%d", k), as, churnCacheBytes, env.traced)
		if err != nil {
			w.close()
			return nil, err
		}
		w.bes = append(w.bes, be)
		addrs = append(addrs, be.addr)
	}
	meas, err := w.bes[0].srv.Measurement()
	if err != nil {
		w.close()
		return nil, err
	}
	w.greg = obs.NewRegistry()
	w.gspans = newCollector(env.traced, "gateway", "bench-gateway")
	// Probing is off: probes open sessions of their own, which would be
	// load the schedule does not control.
	w.gw, err = gateway.New(gateway.Config{Backends: addrs, ProbeInterval: -1, Metrics: w.greg, Spans: w.gspans})
	if err != nil {
		w.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	go func() { w.gdone <- w.gw.Serve(ln) }()
	w.client = &sessionClient{as: as, meas: meas, addr: ln.Addr().String(), viaGateway: true, want: env.want}

	w.sched = zipfSchedule(env.rng(5), len(appList), len(w.jobs), scheduleLen)
	return w, nil
}

// zipfSchedule draws n popularity ranks, P(r) ∝ (r+1)^-churnZipfS, where
// rank r is variant r/apps of app r%apps. The draws are quasi-random: the
// app comes from one golden-ratio sequence through the app shares, the
// variant from a second (step √2−1) through the app's conditional
// distribution, both from seeded starts. Every stretch of the schedule then
// holds each app in almost exactly its share, so the work per session does
// not vary with the seed, which only changes the order.
func zipfSchedule(r *rand.Rand, apps, ranks, n int) []int {
	// cdf[a] is app a's conditional CDF over its variants, share[a] the
	// app's weight.
	cdf := make([][]float64, apps)
	share := make([]float64, apps)
	total := 0.0
	for k := 0; k < ranks; k++ {
		w := math.Pow(float64(k+1), -churnZipfS)
		share[k%apps] += w
		cdf[k%apps] = append(cdf[k%apps], share[k%apps])
		total += w
	}
	appCDF := make([]float64, apps)
	acc := 0.0
	for a := range cdf {
		for i := range cdf[a] {
			cdf[a][i] /= share[a]
		}
		acc += share[a] / total
		appCDF[a] = acc
	}
	pick := func(c []float64, u float64) int { return min(sort.SearchFloat64s(c, u), len(c)-1) }
	step := func(u, by float64) float64 { u += by; return u - math.Floor(u) }
	ua, uv := r.Float64(), r.Float64()
	out := make([]int, n)
	for k := range out {
		ua, uv = step(ua, 0.6180339887498949), step(uv, 0.4142135623730951)
		a := pick(appCDF, ua)
		out[k] = pick(cdf[a], uv)*apps + a
	}
	return out
}

func (w *sessionChurn) corpus() int { return len(appList) }
func (w *sessionChurn) telemetry() *telemetry {
	t := &telemetry{gateway: w.greg, spans: []*obs.Collector{w.gspans}}
	for _, be := range w.bes {
		t.backends = append(t.backends, be.reg)
		t.spans = append(t.spans, be.spans)
	}
	return t
}

func (w *sessionChurn) close() {
	if w.gw != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.gw.Shutdown(ctx)
		cancel()
		<-w.gdone
	}
	for _, be := range w.bes {
		be.stop()
	}
}

func (w *sessionChurn) op(i int, rec *recorder) (opResult, error) {
	return w.client.run(i, &w.jobs[w.sched[i%scheduleLen]], rec)
}
