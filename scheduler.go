package parbox

import (
	"context"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/xpath"
)

// Scheduler defaults: the admission window a round collects callers over,
// and the fused-lane budget that flushes a window early. 64 lanes keeps the
// shared QList — the per-node cost every fragment pays in the round — of
// the order of a handful of individual queries, while heavily overlapping
// subscription sets fit tens of queries under it thanks to cross-query
// hash-consing.
const (
	// DefaultCoalesceWindow is how long an open window waits for further
	// callers before flushing. It is deliberately a fraction of a typical
	// round's wall time: waiting longer would add caller latency without
	// materially improving grouping, since a round in flight already
	// absorbs the arrivals of its duration into the next window.
	DefaultCoalesceWindow = 250 * time.Microsecond
	// DefaultCoalesceLanes is the fused QList size at which a window
	// flushes immediately.
	DefaultCoalesceLanes = 64
)

// SchedInfo reports how the coalescing scheduler served one Exec call; it
// is attached to Result.Sched for calls that went through the scheduler.
type SchedInfo struct {
	// Coalesced is true when the round answered more than one caller.
	Coalesced bool
	// RoundQueries is the number of callers that shared the round.
	RoundQueries int
	// RoundLanes is the fused QList size of the round's shared program —
	// thanks to cross-query sharing it is at most (usually far below) the
	// sum of the member queries' own QList sizes.
	RoundLanes int
	// FlushReason says what closed the window: "idle" (no concurrent
	// callers, flushed immediately), "timer" (admission window elapsed
	// with no round in flight), "lanes" (fused-lane budget reached), or
	// "drain" (a round completed and took the window accumulated during
	// it — the group-commit path that sizes rounds to the load).
	FlushReason string
	// Waited is the time from this caller's arrival to the round starting.
	Waited time.Duration
	// Round is the shared round's full report. It is the same object for
	// every caller of the round (callers can detect round-mates by pointer
	// identity); treat it as read-only.
	Round *BatchResult
}

// SchedulerStats are the scheduler's cumulative counters since deployment.
type SchedulerStats struct {
	// Rounds is the number of ParBoX rounds the scheduler ran.
	Rounds int64
	// Queries is the number of Exec calls served through the scheduler.
	Queries int64
	// CoalescedQueries counts the served calls that shared their round
	// with at least one other call.
	CoalescedQueries int64
	// FlushIdle/FlushTimer/FlushLanes/FlushDrain count rounds by what
	// flushed them (see SchedInfo.FlushReason).
	FlushIdle, FlushTimer, FlushLanes, FlushDrain int64
}

// scheduler groups concurrent Boolean-mode ParBoX Exec calls into shared
// rounds. The first arrival opens an adaptive window; the window flushes
// when the fused-lane budget is reached, immediately when the opener is
// the only caller in flight (idle — the uncontended path pays no added
// latency), on the admission-window time bound, or — the load-adaptive
// group-commit path — the moment an in-flight round completes, taking
// everything that accumulated during it (while a round runs, the time
// bound defers to this drain, so round size scales with arrival rate ×
// round duration instead of fragmenting into timer-sized slivers). The
// flusher fuses the waiters' parsed queries into one shared program
// (incremental CompileBatch), runs a single Engine.ParBoXBatch, and
// demultiplexes per-caller answers and accounting.
type scheduler struct {
	sys    *System
	window time.Duration
	lanes  int

	mu  sync.Mutex
	win *schedWindow
	// spare is the recycled batch builder: flush Resets the round's builder
	// (keeping its hash-consing intern table's storage) and parks it here,
	// so steady-state windows compile through one builder instead of
	// allocating a fresh compiler + intern map per round.
	spare *xpath.BatchBuilder

	// inflight counts Exec calls currently inside the scheduler; the
	// opener of a window uses it to detect the uncontended case. running
	// counts rounds in flight; the timer defers to the end-of-round drain
	// while it is nonzero.
	inflight atomic.Int64
	running  atomic.Int64

	rounds, queries, coalesced                   atomic.Int64
	flushIdle, flushTimer, flushLane, flushDrain atomic.Int64
}

type schedWindow struct {
	builder *xpath.BatchBuilder
	waiters []*schedWaiter
	timer   *time.Timer
}

type schedWaiter struct {
	q   *Prepared
	enq time.Time
	// spans asks the flusher to attach the round's span tree (plus this
	// caller's lane span) to the demultiplexed Result. Text rendering, if
	// any, happens back on the caller's goroutine — the flusher never
	// writes to a caller-owned writer, so a caller that stopped waiting
	// races nothing.
	spans bool
	// done receives the caller's demultiplexed outcome; buffered so the
	// flusher never blocks on a caller that stopped waiting.
	done chan schedOutcome
}

type schedOutcome struct {
	res *Result
	err error
}

func newScheduler(sys *System, window time.Duration, lanes int) *scheduler {
	if window <= 0 {
		window = DefaultCoalesceWindow
	}
	if lanes <= 0 {
		lanes = DefaultCoalesceLanes
	}
	return &scheduler{sys: sys, window: window, lanes: lanes}
}

func (sch *scheduler) stats() SchedulerStats {
	return SchedulerStats{
		Rounds:           sch.rounds.Load(),
		Queries:          sch.queries.Load(),
		CoalescedQueries: sch.coalesced.Load(),
		FlushIdle:        sch.flushIdle.Load(),
		FlushTimer:       sch.flushTimer.Load(),
		FlushLanes:       sch.flushLane.Load(),
		FlushDrain:       sch.flushDrain.Load(),
	}
}

// exec runs one prepared Boolean query through the scheduler and blocks
// until its round delivers (or ctx expires — the shared round itself is
// not cancelled by one caller abandoning it). When trace is non-nil the
// round's span tree is rendered into it after the outcome arrives; when
// spans (or trace) is set, Result.Spans carries the tree.
func (sch *scheduler) exec(ctx context.Context, q *Prepared, trace io.Writer, spans bool) (*Result, error) {
	sch.inflight.Add(1)
	defer sch.inflight.Add(-1)
	sch.queries.Add(1)

	w := &schedWaiter{q: q, enq: time.Now(), spans: spans || trace != nil, done: make(chan schedOutcome, 1)}

	sch.mu.Lock()
	opened := sch.win == nil
	if opened {
		b := sch.spare
		if b != nil {
			sch.spare = nil
		} else {
			b = xpath.NewBatchBuilder()
		}
		sch.win = &schedWindow{builder: b}
	}
	win := sch.win
	win.waiters = append(win.waiters, w)
	win.builder.Add(q.expr)
	full := win.builder.Lanes() >= sch.lanes
	sch.mu.Unlock()

	switch {
	case full:
		// Budget reached: this caller flushes the window it just joined.
		if sch.detach(win) != nil {
			sch.flushLane.Add(1)
			sch.flush(win, "lanes")
		}
	case opened && sch.idleAfterYield():
		// Nobody else is in flight: flushing now costs no coalescing
		// opportunity and saves the window latency.
		if sch.detach(win) != nil {
			sch.flushIdle.Add(1)
			sch.flush(win, "idle")
		}
	case opened:
		timer := time.AfterFunc(sch.window, func() {
			// With a round in flight, leave the window for the
			// end-of-round drain: flushing timer-sized slivers under load
			// would fragment the very batches coalescing exists to build.
			if sch.running.Load() > 0 {
				return
			}
			sch.settle(win)
			if sch.detach(win) != nil {
				sch.flushTimer.Add(1)
				sch.flush(win, "timer")
			}
		})
		// Publish the timer under the lock (detach reads it there); if a
		// lane-budget flush already detached the window in the meantime,
		// the timer has nothing to do.
		sch.mu.Lock()
		if sch.win == win {
			win.timer = timer
			sch.mu.Unlock()
		} else {
			sch.mu.Unlock()
			timer.Stop()
		}
	}

	select {
	case out := <-w.done:
		if trace != nil && out.res != nil && len(out.res.Spans) > 0 {
			obs.RenderTrace(trace, obs.TraceRecord{
				TraceID: out.res.Spans[0].TraceID,
				Root:    "coalesced round",
				Dur:     out.res.Duration,
				At:      w.enq,
				Spans:   out.res.Spans,
			})
		}
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// idleAfterYield reports whether the window opener is still the only
// caller in flight after giving up its scheduling quantum once. The
// callers of a subscription burst are released in the same instant but are
// merely runnable, not yet enqueued — on a loaded single-P server,
// reliably so — and an opener that trusted a bare inflight check would
// flush solo and leave the rest of the burst to a second full round. One
// cooperative yield lets same-instant arrivals join this window, turning
// two back-to-back forest walks into one fused round; a genuinely
// uncontended caller pays one Gosched (sub-microsecond) before the idle
// flush.
func (sch *scheduler) idleAfterYield() bool {
	if sch.inflight.Load() > 1 {
		return false
	}
	runtime.Gosched()
	return sch.inflight.Load() == 1
}

// settle yields until every caller already inside exec has enqueued into
// the expired window (or a bounded number of tries runs out). The timer
// can fire while the tail of a burst is runnable but not yet enqueued —
// on a loaded single-P server, reliably so — and flushing at that instant
// strands those callers in a follow-up round that re-walks the whole
// forest for a sliver of the burst. The wait is bounded (≤16 yields), so
// the window-latency contract moves by microseconds, not another window.
func (sch *scheduler) settle(win *schedWindow) {
	for i := 0; i < 16; i++ {
		sch.mu.Lock()
		enqueued := 0
		if sch.win == win {
			enqueued = len(win.waiters)
		}
		sch.mu.Unlock()
		if enqueued == 0 || int64(enqueued) >= sch.inflight.Load() {
			return
		}
		runtime.Gosched()
	}
}

// detach removes win from the scheduler if it is still the open window,
// returning win exactly once (nil for every later caller); the winner runs
// the flush.
func (sch *scheduler) detach(win *schedWindow) *schedWindow {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	if sch.win != win {
		return nil
	}
	sch.win = nil
	if win.timer != nil {
		win.timer.Stop()
	}
	return win
}

// detachCurrent removes and returns whatever window is open (nil if none)
// — the end-of-round drain takes the waiters that accumulated while the
// round ran.
func (sch *scheduler) detachCurrent() *schedWindow {
	sch.mu.Lock()
	defer sch.mu.Unlock()
	win := sch.win
	if win == nil {
		return nil
	}
	sch.win = nil
	if win.timer != nil {
		win.timer.Stop()
	}
	return win
}

// flush runs one shared round for the window's waiters and demultiplexes
// the outcome, then drains any window that accumulated while the round was
// in flight into a follow-up round (in a fresh goroutine, so the flushing
// caller gets back to its own result). The round runs under
// context.Background(): it serves every waiter, so no single caller's
// cancellation may abort it (a caller whose context expires simply stops
// waiting; see exec). On a failover deployment the round recovers like
// any other query — inside ParBoXBatch, from one retry budget — so what
// bounds a struggling round is that budget times the backoff cap, not a
// caller's deadline.
func (sch *scheduler) flush(win *schedWindow, reason string) {
	sch.rounds.Add(1)
	sch.running.Add(1)
	defer func() {
		sch.running.Add(-1)
		if next := sch.detachCurrent(); next != nil {
			sch.flushDrain.Add(1)
			go sch.flush(next, "drain")
		}
	}()
	prog, roots := win.builder.Program()
	// The returned program and roots don't alias builder state Reset
	// reuses, so the builder can go straight back into rotation while the
	// round runs.
	win.builder.Reset()
	sch.mu.Lock()
	if sch.spare == nil {
		sch.spare = win.builder
	}
	sch.mu.Unlock()
	win.builder = nil
	// One shared trace for the whole round when any member asked for
	// spans: the round runs once, so its tree is recorded once and every
	// traced caller receives the same slice, lane spans included.
	traced := false
	for _, w := range win.waiters {
		if w.spans {
			traced = true
			break
		}
	}
	rctx := context.Background()
	var spanCol *obs.Collector
	var rootSpan obs.Span
	if traced {
		spanCol = obs.NewCollector()
		rootSpan = obs.Span{TraceID: obs.NewTraceID(), ID: obs.NewSpanID(),
			Site: "coordinator", Name: "round"}
		rctx = obs.WithTrace(rctx, obs.TraceContext{TraceID: rootSpan.TraceID, SpanID: rootSpan.ID, Collector: spanCol})
	}
	start := time.Now()
	rep, err := sch.sys.eng().ParBoXBatch(rctx, prog, roots)
	if err != nil {
		for _, w := range win.waiters {
			w.done <- schedOutcome{err: err}
		}
		return
	}
	k := len(win.waiters)
	if k > 1 {
		sch.coalesced.Add(int64(k))
	}
	shared := &rep
	var tree []obs.Span
	if traced {
		rootSpan.Start = start.UnixNano()
		rootSpan.Dur = time.Since(start).Nanoseconds()
		rootSpan.Attrs = []obs.Attr{
			{Key: "queries", Val: int64(k)},
			{Key: "lanes", Val: int64(prog.QListSize())},
		}
		// One immutable tree shared by every traced round-mate: the
		// round's collected spans, the root, and one lane span per
		// traced caller. A per-caller copy would cost k×tree allocations
		// per round — the difference between passing and blowing the
		// observed-burst overhead gate.
		collected := spanCol.Spans()
		tree = make([]obs.Span, 0, len(collected)+1+k)
		tree = append(tree, collected...)
		tree = append(tree, rootSpan)
		now := time.Now()
		for i, w := range win.waiters {
			if !w.spans {
				continue
			}
			// Lane attribution: which slot of the fused program answered
			// this caller, how many queries rode the round, and how long
			// the caller waited for admission.
			tree = append(tree, obs.Span{
				TraceID: rootSpan.TraceID, ID: obs.NewSpanID(), Parent: rootSpan.ID,
				Site: "coordinator", Name: "lane",
				Start: w.enq.UnixNano(), Dur: now.Sub(w.enq).Nanoseconds(),
				Attrs: []obs.Attr{
					{Key: "lane", Val: int64(i)},
					{Key: "lanes", Val: int64(k)},
					{Key: "waited_ns", Val: start.Sub(w.enq).Nanoseconds()},
				},
			})
		}
		if ring := sch.sys.obsRing; ring != nil {
			ring.Add(obs.TraceRecord{TraceID: rootSpan.TraceID, Root: "round",
				Dur: time.Duration(rootSpan.Dur), At: start, Spans: tree})
		}
	}
	// Deterministic site order for splitting the visit counts.
	sites := make([]SiteID, 0, len(rep.Visits))
	for s := range rep.Visits {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for i, w := range win.waiters {
		res := &Result{
			Mode:      ModeBoolean,
			Algorithm: AlgoParBoX,
			Answer:    rep.Answers[i],
			// Fair-share accounting: the round's totals are split over its
			// callers such that the per-caller shares sum exactly back to
			// the round (the metrics-sum invariant differential tests
			// pin). SimTime is deliberately NOT split — it is a makespan,
			// and every caller of the round waited through all of it.
			// Failovers, like SimTime, is a round-level fact: every caller
			// of the round rode through the same recoveries.
			Failovers:   rep.Failovers,
			SimTime:     rep.SimTime,
			Bytes:       fairShare(rep.Bytes, i, k),
			Messages:    fairShare(rep.Messages, i, k),
			TotalSteps:  fairShare(rep.TotalSteps, i, k),
			CacheHits:   fairShare(rep.CacheHits, i, k),
			CacheMisses: fairShare(rep.CacheMisses, i, k),
			Sched: &SchedInfo{
				Coalesced:    k > 1,
				RoundQueries: k,
				RoundLanes:   prog.QListSize(),
				FlushReason:  reason,
				Waited:       start.Sub(w.enq),
				Round:        shared,
			},
		}
		if len(sites) > 0 {
			res.Visits = make(map[SiteID]int64, len(sites))
			for _, s := range sites {
				if v := fairShare(rep.Visits[s], i, k); v > 0 {
					res.Visits[s] = v
				}
			}
		}
		res.Duration = time.Since(w.enq)
		if w.spans {
			res.Spans = tree
		}
		w.done <- schedOutcome{res: res}
	}
}

// fairShare splits total into k near-equal non-negative parts that sum to
// exactly total; part i gets the remainder's i-th unit.
func fairShare(total int64, i, k int) int64 {
	share := total / int64(k)
	if int64(i) < total%int64(k) {
		share++
	}
	return share
}
