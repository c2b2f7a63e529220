package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	parbox "repro"
	"repro/internal/eval"
	"repro/internal/xpath"
)

// scale fixes the sizes of a run. The full scale is what BENCHMARK.json
// describes; the tiny scale exists for the smoke test only.
type scale struct {
	nodesPerFragment int
	reps             int
	setups           int     // set-ups per run; setup_s is their median
	ops              float64 // multiplier on every workload's op counts
	wireStanding     int     // standing programs of standing-warm-tcp
}

var fullScale = scale{nodesPerFragment: 10_000, reps: 5, setups: 3, ops: 1, wireStanding: 64}

// tinyScale lets the smoke test run every workload, both passes, in
// seconds. Its numbers mean nothing.
var tinyScale = scale{nodesPerFragment: 500, reps: 2, setups: 1, ops: 0.03, wireStanding: 16}

// defaultSeconds is the run length the op counts in workloads.go are
// sized for; --seconds scales them linearly.
const defaultSeconds = 12

// env is what a set-up needs to know about its run.
type env struct {
	seed    int64
	sc      scale
	workDir string // scratch directory inside the checkout, removed at exit
	serial  atomic.Int64
}

func (e *env) tempDir(prefix string) (string, error) {
	dir := filepath.Join(e.workDir, fmt.Sprintf("%s-%d", prefix, e.serial.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

// counts are a workload's per-repetition op counts after scaling.
type counts struct {
	query, selection, update, restart int
}

func (w *workload) scaled(sc scale, seconds float64) counts {
	f := sc.ops * seconds / defaultSeconds
	n := func(base int) int {
		if base == 0 {
			return 0
		}
		v := int(float64(base)*f + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	c := counts{query: n(w.queryOps), selection: n(w.selectOps), update: n(w.updateOps), restart: n(w.restartIters)}
	// Whole selection passes, and whole update cycles: every repetition ends
	// with every trigger off.
	c.selection = (c.selection + selectionKinds - 1) / selectionKinds * selectionKinds
	c.update = (c.update + 7) / 8 * 8
	return c
}

// samples are the measurements of one repetition.
type samples struct {
	query            []time.Duration
	queryWall        time.Duration
	total            outcome // of every query op of the repetition
	selection        []time.Duration
	update           []time.Duration
	notify           []time.Duration
	restart, recover []time.Duration
}

// tally counts attempted and failed ops; it is shared by every goroutine
// of a run.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	messages          []string
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.messages) < 20 {
		t.messages = append(t.messages, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

const notifyTimeout = 2 * time.Second

// queryPhase drives n query ops from the given number of closed-loop
// clients: each client issues its next op when the previous one returned.
// A 1-in-20 sample of ops is checked against the mirror afterwards.
func queryPhase(ctx context.Context, d *deployment, clients, n int, s *samples, t *tally, stop <-chan struct{}) {
	if d.prepare != nil {
		d.prepare(n)
	}
	type sampled struct {
		i   int
		out outcome
	}
	var next atomic.Int64
	perClient := make([]samples, clients)
	checks := make([][]sampled, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ps := &perClient[c]
			for {
				if stop != nil {
					select {
					case <-stop:
						return
					default:
					}
				}
				i := int(next.Add(1) - 1)
				if stop == nil && i >= n {
					return
				}
				t0 := time.Now()
				out, err := d.query(ctx, i)
				dt := time.Since(t0)
				if err != nil {
					t.fail("query op %d: %v", i, err)
					continue
				}
				t.ok()
				ps.query = append(ps.query, dt)
				ps.total.add(out)
				if d.check != nil && i%20 == 7 {
					checks[c] = append(checks[c], sampled{i, out})
				}
			}
		}(c)
	}
	wg.Wait()
	s.queryWall += time.Since(start)
	for c := range perClient {
		ps := &perClient[c]
		s.query = append(s.query, ps.query...)
		s.total.add(ps.total)
		for _, sm := range checks[c] {
			if err := d.check(sm.i, sm.out); err != nil {
				t.fail("query op %d: %v", sm.i, err)
			}
		}
	}
}

// selectionKinds is one pass of the selection phase: each of the four
// XMark selection queries in ModeSelect and in ModeCount.
const selectionKinds = 8

// selectionPhase drives n selection ops in passes of selectionKinds and
// checks every count against eval.SelectLocal on the mirror. One latency
// sample is a pass's wall time per op: a single op allocates enough to run
// into one or two collections or none, which splits single-op times into
// modes 2x apart with the median between them; a pass averages over that.
func selectionPhase(ctx context.Context, d *deployment, clients, n int, s *samples, t *tally) {
	srcs := selectionSources()
	want := make([]int64, len(srcs))
	for i, src := range srcs {
		sp, err := xpath.CompileSelectString(src)
		if err != nil {
			t.fail("selection %q: %v", src, err)
			return
		}
		paths, err := eval.SelectLocal(d.mirror.doc.root, sp)
		if err != nil {
			t.fail("selection %q on the mirror: %v", src, err)
			return
		}
		want[i] = int64(len(paths))
	}
	var next atomic.Int64
	perClient := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				pass := int(next.Add(1) - 1)
				if pass >= n/selectionKinds {
					return
				}
				failed := false
				t0 := time.Now()
				for i := pass * selectionKinds; i < (pass+1)*selectionKinds; i++ {
					got, err := d.selection(ctx, i)
					switch {
					case err != nil:
						t.fail("selection op %d: %v", i, err)
						failed = true
					case got != want[(i/2)%len(want)]:
						t.fail("selection op %d (%s): matched %d, the mirror %d", i, srcs[(i/2)%len(srcs)], got, want[(i/2)%len(want)])
						failed = true
					default:
						t.ok()
					}
				}
				if !failed {
					perClient[c] = append(perClient[c], time.Since(t0)/selectionKinds)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, lat := range perClient {
		s.selection = append(s.selection, lat...)
	}
}

// updatePhase is the writer: n single-op View.Updates from the planner.
// After a flipping update it waits until every subscriber of the flipped
// query holds the notification. The mirror follows, outside timed regions.
func updatePhase(ctx context.Context, d *deployment, n int, s *samples, t *tally) {
	for j := 0; j < n; j++ {
		u := d.plan.next()
		if u.flips >= 0 {
			d.flips.arm(u.flips)
		}
		t0 := time.Now()
		err := d.update(ctx, u.frag, u.ops)
		t1 := time.Now()
		if err != nil {
			t.fail("update %d (fragment %d): %v", j, u.frag, err)
			continue
		}
		s.update = append(s.update, t1.Sub(t0))
		if u.flips >= 0 {
			at, ok, stray := d.flips.wait(u.flips, notifyTimeout)
			switch {
			case !ok:
				t.fail("update %d: subscribers of standing query %d not all notified within %v", j, u.flips, notifyTimeout)
			case stray != 0:
				t.fail("update %d: %d notifications reached subscribers of other standing queries", j, stray)
			default:
				t.ok()
				s.notify = append(s.notify, at.Sub(t0))
			}
		} else {
			t.ok()
		}
		if err := d.mirror.apply(u.frag, u.ops); err != nil {
			t.fail("update %d on the mirror: %v", j, err)
		}
	}
}

// restartOnce copies one image to a scratch directory (untimed), restores
// it and answers the first standing query (timed together), answers the
// remaining standing queries (each timed as a query), checks all answers
// against the pre-crash ones, and closes (untimed).
func restartOnce(ctx context.Context, e *env, im *images, crash bool, t *tally) (first time.Duration, queries []time.Duration, total outcome, ok bool) {
	src, kind := im.checkpoint, "checkpointed"
	if crash {
		src, kind = im.crash, "crash"
	}
	dir, err := e.tempDir("restart")
	if err == nil {
		_, err = copyTree(src, dir)
	}
	if err != nil {
		t.fail("restart (%s image): copy: %v", kind, err)
		return 0, nil, outcome{}, false
	}
	defer os.RemoveAll(dir)
	// A restarted process begins with an empty heap. Here the heap holds
	// the previous iteration's garbage, and whether its collection falls
	// inside the restore splits the samples into two modes; collecting
	// first leaves one.
	runtime.GC()
	t0 := time.Now()
	sys, err := parbox.Restore(dir, parbox.WithTripletCache())
	if err != nil {
		t.fail("restart (%s image): %v", kind, err)
		return 0, nil, outcome{}, false
	}
	defer sys.Close()
	for k, sq := range im.standing {
		q0 := time.Now()
		res, err := sys.Exec(ctx, sq.q)
		now := time.Now()
		if err != nil {
			t.fail("restart (%s image): standing query %d: %v", kind, k, err)
			return 0, nil, outcome{}, false
		}
		if k == 0 {
			first = now.Sub(t0)
		}
		queries = append(queries, now.Sub(q0))
		total.add(outcome{answers: []bool{res.Answer}, bytes: res.Bytes, hits: res.CacheHits, misses: res.CacheMisses})
		if res.Answer != im.answers[k] {
			t.fail("restart (%s image): standing query %d answers %v, before the crash %v", kind, k, res.Answer, im.answers[k])
			return 0, nil, outcome{}, false
		}
	}
	t.ok()
	return first, queries, total, true
}

// restartPhase alternates crash-image and checkpointed-image restarts.
// When the workload takes its query metrics from restarts, the standing
// answers after each restore's first are its latency samples, and all of
// them count for throughput against the restore-plus-answers wall.
func restartPhase(ctx context.Context, e *env, d *deployment, iters int, asQueries bool, s *samples, t *tally) {
	for i := 0; i < 2*iters; i++ {
		crash := i%2 == 0
		first, queries, total, ok := restartOnce(ctx, e, d.images, crash, t)
		if !ok {
			continue
		}
		if crash {
			s.recover = append(s.recover, first)
		} else {
			s.restart = append(s.restart, first)
		}
		if asQueries {
			// The first answer is part of the restart; it is also the one
			// answer in 16 that finds the system cold, which would put p95
			// on the edge between the two kinds.
			s.query = append(s.query, queries[1:]...)
			s.total.add(total)
			s.queryWall += first
			for _, q := range queries[1:] {
				s.queryWall += q
			}
		}
	}
}

// boundaryCheck answers every standing query through the deployment and
// compares with parbox.EvaluateLocal on the mirror.
func boundaryCheck(ctx context.Context, d *deployment, t *tally) {
	for k, sq := range d.sq {
		out, err := d.standing(ctx, k)
		if err != nil {
			t.fail("boundary: standing query %d: %v", k, err)
			continue
		}
		want, err := parbox.EvaluateLocal(d.mirror.doc.root, sq.q)
		if err != nil {
			t.fail("boundary: standing query %d on the mirror: %v", k, err)
			continue
		}
		if len(out.answers) != 1 || out.answers[0] != want {
			t.fail("boundary: standing query %d (%s) answers %v, the mirror %v", k, sq.src, out.answers, want)
			continue
		}
		t.ok()
	}
}

// repetition runs the four phases of one repetition.
func repetition(ctx context.Context, e *env, w *workload, d *deployment, c counts, t *tally) *samples {
	s := &samples{}
	// Every phase starts from a collected heap, so whether a collection
	// falls inside a short phase does not vary from run to run.
	runtime.GC()
	switch {
	case w.beside:
		// Writer and reader share the system: the reader loops until the
		// writer has applied its fixed number of updates.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			queryPhase(ctx, d, 1, 0, s, t, stop)
		}()
		var ws samples
		updatePhase(ctx, d, c.update, &ws, t)
		close(stop)
		wg.Wait()
		s.update, s.notify = ws.update, ws.notify
	case c.query > 0:
		queryPhase(ctx, d, w.clients, c.query, s, t, nil)
	}
	runtime.GC()
	selectionPhase(ctx, d, w.clients, c.selection, s, t)
	if !w.beside {
		runtime.GC()
		updatePhase(ctx, d, c.update, s, t)
	}
	restartPhase(ctx, e, d, c.restart, w.queriesFromRestarts, s, t)
	boundaryCheck(ctx, d, t)
	return s
}

// warmUp is the discarded tenth of a repetition that ends every set-up. Its
// update phase is one whole trigger cycle, so set-up verifies that each
// trigger pair flips exactly its own standing query; its boundary check
// answers every standing query once, which fills the triplet caches.
func warmUp(ctx context.Context, e *env, w *workload, d *deployment, seconds float64, t *tally) {
	c := w.scaled(e.sc, seconds/10)
	c.update = 8 * triggers
	repetition(ctx, e, w, d, c, t)
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Noisy       bool               `json:"noisy"`
	Calibration [2]float64         `json:"calibration_ms"`
	WallSeconds float64            `json:"wall_s"`
	Samples     map[string]int     `json:"samples_per_repetition,omitempty"`
	Metrics     map[string]measure `json:"metrics"`
	Failures    []string           `json:"failures,omitempty"`
	Setups      []float64          `json:"setups_s,omitempty"`
	trace       []span             // written to trace-<workload>.json
}

// measure is one reported metric: the median over repetitions with the
// smallest and largest repetition and the quartiles beside it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// measureOf folds per-repetition values. A phase in which every op failed
// leaves a ratio without a denominator; it is reported as 0 so the result
// line stays valid JSON (the run is already marked incorrect).
func measureOf(vals []float64, unit string) measure {
	finite := make([]float64, len(vals))
	for i, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite[i] = v
		}
	}
	s := summarize(finite)
	return measure{Value: s.Median, Unit: unit, Min: s.Min, Max: s.Max, Q1: s.Q1, Q3: s.Q3}
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload is the untraced pass: the numbers every end-to-end metric
// comes from.
func runWorkload(ctx context.Context, w *workload, e *env, seconds float64) *runResult {
	res := &runResult{Workload: w.name, Seed: e.seed, Seconds: seconds, Metrics: map[string]measure{}, Samples: map[string]int{}}
	started := time.Now()
	t := &tally{}
	res.Calibration[0] = calibrate()

	var d *deployment
	for i := 0; i < e.sc.setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				t.fail("close after set-up %d: %v", i, err)
			}
			d = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = w.setup(ctx, e, w)
		if err == nil {
			warmUp(ctx, e, w, d, seconds, t)
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
		if err != nil {
			t.fail("set-up: %v", err)
			if d != nil {
				d.close()
			}
			return res.finish(t, started)
		}
	}
	heap := heapMB()

	c := w.scaled(e.sc, seconds)
	reps := make([]*samples, e.sc.reps)
	for r := range reps {
		reps[r] = repetition(ctx, e, w, d, c, t)
	}
	res.Calibration[1] = calibrate()

	each := func(f func(*samples) float64) []float64 {
		out := make([]float64, len(reps))
		for i, s := range reps {
			out[i] = f(s)
		}
		return out
	}
	put := func(name string, vals []float64) { res.Metrics[name] = measureOf(vals, unitOf(name)) }
	put("setup_s", res.Setups)
	put("query_ms_p50", each(func(s *samples) float64 { return percentile(s.query, 50) }))
	put("query_ms_p95", each(func(s *samples) float64 { return percentile(s.query, 95) }))
	put("queries_per_s", each(func(s *samples) float64 { return float64(len(s.total.answers)) / s.queryWall.Seconds() }))
	put("select_ms_p50", each(func(s *samples) float64 { return percentile(s.selection, 50) }))
	put("update_ms_p50", each(func(s *samples) float64 { return percentile(s.update, 50) }))
	put("update_ms_p95", each(func(s *samples) float64 { return percentile(s.update, 95) }))
	put("notify_ms_p50", each(func(s *samples) float64 { return percentile(s.notify, 50) }))
	put("notify_ms_p95", each(func(s *samples) float64 { return percentile(s.notify, 95) }))
	put("restart_ms_p50", each(func(s *samples) float64 { return percentile(s.restart, 50) }))
	put("recover_wal_ms_p50", each(func(s *samples) float64 { return percentile(s.recover, 50) }))
	// A count, exact for a seed and a length: taken over all repetitions at
	// once, so that ten seeds differ by their query texts as little as the
	// run's length allows.
	var wireBytes int64
	var answered int
	for _, s := range reps {
		wireBytes += s.total.bytes
		answered += len(s.total.answers)
	}
	put("wire_bytes_per_query", []float64{float64(wireBytes) / float64(answered)})
	put("store_bytes_per_doc_byte", []float64{float64(d.images.checkpointBytes) / float64(d.images.documentBytes)})
	put("live_heap_mb", []float64{heap})

	res.Samples["query"] = len(reps[0].query)
	res.Samples["selection"] = len(reps[0].selection)
	res.Samples["update"] = len(reps[0].update)
	res.Samples["notify"] = len(reps[0].notify)
	res.Samples["restart"] = len(reps[0].restart)
	res.Samples["recover"] = len(reps[0].recover)

	bypass := map[string][]float64{
		"steps_per_query": each(func(s *samples) float64 { return float64(s.total.steps) / float64(len(s.total.answers)) }),
		"cache_hit_ratio": each(func(s *samples) float64 {
			if s.total.hits+s.total.misses == 0 {
				return -1
			}
			return float64(s.total.hits) / float64(s.total.hits+s.total.misses)
		}),
		"visits_per_site_max": each(func(s *samples) float64 { return float64(s.total.maxVisits) }),
	}
	for _, msg := range w.assertBypass(bypass) {
		t.fail("bypass assertion: %s", msg)
	}
	if err := d.close(); err != nil {
		t.fail("close: %v", err)
	}
	return res.finish(t, started)
}

func (r *runResult) finish(t *tally, started time.Time) *runResult {
	r.Attempted = t.attempted.Load()
	r.Failed = t.failed.Load()
	r.Failures = append(r.Failures, t.messages...)
	r.Correct = r.Failed == 0 && r.Attempted > 0 && len(r.Failures) == 0
	r.WallSeconds = time.Since(started).Seconds()
	if a, b := r.Calibration[0], r.Calibration[1]; a > 0 && b > 0 {
		drift := (b - a) / a
		if drift < 0 {
			drift = -drift
		}
		r.Noisy = drift > 0.10
	}
	return r
}
