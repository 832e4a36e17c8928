package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"deflection/internal/obs"
)

// sample is one finished op.
type sample struct {
	// lat is the op's latency: from its start in a closed loop, from its
	// due time in an open loop.
	lat time.Duration
	// late is how long after its due time the op started (open loop).
	late time.Duration
	res  opResult
	err  error
}

// window is one timed stretch of ops.
type window struct {
	start, end time.Time
	samples    []sample
}

func (w *window) elapsed() time.Duration { return w.end.Sub(w.start) }

// good returns the samples of ops that succeeded.
func (w *window) good() []sample {
	var out []sample
	for _, s := range w.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// countTable pins the exact work counts of every op key: a key that comes
// back with different counts is a failed op.
type countTable struct {
	mu sync.Mutex
	m  map[string]counts
}

func (t *countTable) check(key string, c counts) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]counts)
	}
	if prev, ok := t.m[key]; ok && prev != c {
		return fmt.Errorf("%s: counts %+v differ from an earlier run's %+v", key, c, prev)
	}
	t.m[key] = c
	return nil
}

func (t *countTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// runner applies a workload's load to one instance. Schedule indices
// continue across windows, so warm-up and measurement see one sequence.
type runner struct {
	w     workload
	inst  instance
	seed  uint64
	table countTable
	next  int
	wins  uint64 // windows run, for per-window arrival streams
	// attempted and failed count every op run, warm-up included.
	attempted, failed int
	errs              []string
}

// run issues ops for d under the workload's load and returns the window.
func (r *runner) run(d time.Duration, rec *recorder) *window {
	if r.w.rate > 0 {
		return r.count(r.open(d, rec))
	}
	return r.count(r.closed(d, rec))
}

// count adds a window's ops to the attempted and failed totals.
func (r *runner) count(win *window) *window {
	for _, s := range win.samples {
		r.attempted++
		if s.err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, s.err.Error())
			}
		}
	}
	return win
}

// do runs op i, checks its counts and records its root span.
func (r *runner) do(i int, rec *recorder) (opResult, error) {
	start := time.Now()
	res, err := r.inst.op(i, rec)
	rec.add(i, "op", start, time.Now(), obs.Attr{Key: "key", Val: res.key})
	if err == nil {
		err = r.table.check(res.key, res.counts)
	}
	return res, err
}

// closed runs w.clients clients, each sending its next op when the last
// one completes, until the deadline.
func (r *runner) closed(d time.Duration, rec *recorder) *window {
	var next atomic.Int64
	next.Store(int64(r.next))
	win := &window{start: time.Now()}
	deadline := win.start.Add(d)
	per := make([][]sample, r.w.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				start := time.Now()
				res, err := r.do(i, rec)
				per[c] = append(per[c], sample{lat: time.Since(start), res: res, err: err})
			}
		}(c)
	}
	wg.Wait()
	r.next = int(next.Load())
	win.end = time.Now()
	for _, s := range per {
		win.samples = append(win.samples, s...)
	}
	return win
}

// open sends ops on a seeded Poisson schedule of w.rate per second through
// w.clients senders. The number of arrivals is fixed at rate×d and their
// times are uniform over the window (a Poisson process conditioned on its
// count), so throughput does not vary with the draw. An op whose senders
// are all busy at its due time starts late, and the wait counts in its
// latency.
func (r *runner) open(d time.Duration, rec *recorder) *window {
	r.wins++
	n := int(r.w.rate*d.Seconds() + 0.5)
	rng := rand.New(rand.NewPCG(r.seed, 1000+r.wins))
	offsets := make([]time.Duration, n)
	for k := range offsets {
		offsets[k] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(offsets)

	base := r.next
	var next atomic.Int64
	win := &window{start: time.Now()}
	per := make([][]sample, r.w.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := win.start.Add(offsets[k])
				time.Sleep(time.Until(due))
				start := time.Now()
				res, err := r.do(base+k, rec)
				per[c] = append(per[c], sample{lat: time.Since(due), late: start.Sub(due), res: res, err: err})
			}
		}(c)
	}
	wg.Wait()
	r.next = base + n
	win.end = time.Now() // the last completion
	for _, s := range per {
		win.samples = append(win.samples, s...)
	}
	return win
}

// warm runs ops for at least d, so caches are filled. It runs closed-loop
// even for an open-loop workload: warm-up only fills state, as fast as the
// system allows. With cover it goes on until every input of the corpus has
// run once, so every exact count is known. Failed ops end it early: the run
// is then reported as incorrect.
func (r *runner) warm(d time.Duration, cover bool) error {
	r.count(r.closed(d, nil))
	for tries := 0; cover && r.table.len() < r.inst.corpus() && r.failed == 0; tries++ {
		if tries == 200 {
			return fmt.Errorf("warm-up covered %d of %d inputs", r.table.len(), r.inst.corpus())
		}
		r.count(r.closed(250*time.Millisecond, nil))
	}
	return nil
}
