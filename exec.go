package parbox

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/views"
	"repro/internal/xpath"
)

// Mode selects what an Exec call computes from a prepared query.
type Mode uint8

const (
	// ModeBoolean answers the query true/false — the paper's core
	// problem. The default mode; every algorithm supports it.
	ModeBoolean Mode = iota
	// ModeSelect locates every node a path query selects (Section 8
	// extension); results are fragment-local child-index paths, no data
	// moves. ParBoX only.
	ModeSelect
	// ModeCount counts the nodes a path query selects without shipping
	// their identities anywhere (Section 8 aggregation remark). ParBoX
	// only.
	ModeCount
	// ModeMaterialize installs the query as an incrementally maintained
	// Boolean view (Section 5) and returns it in Result.View. ParBoX
	// only.
	ModeMaterialize

	numModes // sentinel; keep last
)

// Valid reports whether m names an implemented mode.
func (m Mode) Valid() bool { return m < numModes }

// String returns the mode's name.
func (m Mode) String() string {
	switch m {
	case ModeBoolean:
		return "boolean"
	case ModeSelect:
		return "select"
	case ModeCount:
		return "count"
	case ModeMaterialize:
		return "materialize"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ExecOption configures one Exec call.
type ExecOption func(*execConfig)

type execConfig struct {
	algo       Algorithm
	mode       Mode
	timeout    time.Duration
	timeoutSet bool
	trace      io.Writer
	spans      bool
	batch      []*Prepared
	batchSet   bool
	coalesce   bool
	noCoalesce bool
}

// WithAlgorithm selects the evaluation algorithm (default AlgoParBoX).
// Modes other than ModeBoolean run only under AlgoParBoX.
func WithAlgorithm(a Algorithm) ExecOption {
	return func(c *execConfig) { c.algo = a }
}

// WithMode selects what the call computes (default ModeBoolean).
func WithMode(m Mode) ExecOption {
	return func(c *execConfig) { c.mode = m }
}

// WithTimeout bounds the whole call: the context handed to the transport
// carries the deadline, so in-flight site calls are cancelled when it
// expires. A zero or negative duration is an already-expired deadline —
// the call fails immediately, matching a caller passing its remaining
// budget.
func WithTimeout(d time.Duration) ExecOption {
	return func(c *execConfig) { c.timeout = d; c.timeoutSet = true }
}

// WithTrace is WithSpans plus a rendering of the run's span tree to w
// (obs.RenderTrace): every remote call appears as a "call <kind>" span
// (an "rpc <kind>" span over TCP) at its callee, labelled with the
// req_bytes and resp_bytes it moved, with the callee's handler spans
// beneath it. On the in-process cluster that includes the site-to-site
// hops of the recursive algorithms (AlgoFullDist, AlgoNaiveDistributed).
// A coalesced run writes its shared round's tree with this caller's lane
// attributed; a failed solo run writes the spans collected up to its
// failure (and, like a successful one, is retained for /tracez).
func WithTrace(w io.Writer) ExecOption {
	return func(c *execConfig) { c.trace = w }
}

// WithSpans collects wire-propagated trace spans for this call into
// Result.Spans without any text rendering: every hop the run takes —
// transport calls, per-site queue/admission/handler brackets, bottomUp
// and encode phases — is recorded as a Span and reassembled into one
// tree (see obs.Span). Spans ride back piggybacked on the v2 wire
// protocol, so remote sites contribute their server-side timings too.
// Cheaper than WithTrace (no per-run transport wrapper, no rendering);
// composes with every mode and with coalescing.
func WithSpans() ExecOption {
	return func(c *execConfig) { c.spans = true }
}

// WithBatch evaluates additional Boolean queries in the same ParBoX
// round: all queries compile into one shared QList (overlapping
// subexpressions are evaluated once per node), each site is visited once
// for the whole batch, and one equation solve yields every answer —
// Result.Answers holds them in order, the primary query first. The call
// runs as a batch (Result.Batch, Result.Answers filled) even with zero
// extra queries. ModeBoolean and AlgoParBoX only.
//
// The shared QList is compiled from the queries' parsed forms per call —
// parsing is reused from each Prepared, but the combined program is not
// cached across calls. Re-executing a large standing batch at high
// frequency pays that compile each time; a cached batch artifact is
// future work.
func WithBatch(more ...*Prepared) ExecOption {
	return func(c *execConfig) { c.batch = append(c.batch, more...); c.batchSet = true }
}

// WithCoalescing routes this Boolean ParBoX call through the system's
// coalescing scheduler: concurrent calls are transparently grouped into
// shared ParBoX rounds (one fused QList, one visit per site, one solve for
// the whole group) and each caller receives its own answer and a fair
// share of the round's accounting; Result.Sched reports the round. It
// applies only to ModeBoolean under AlgoParBoX without WithBatch —
// combining those is an error. WithTrace and WithSpans compose: the
// shared round records one span tree and every traced caller receives it
// with its own lane attributed. An Optimized()
// query always runs its own round (the scheduler fuses from the parsed
// form, which would discard the minimized program). Systems deployed with
// WithCoalescedServing coalesce by default; use WithNoCoalesce to opt a
// call out.
func WithCoalescing() ExecOption {
	return func(c *execConfig) { c.coalesce = true }
}

// WithNoCoalesce forces this call to run its own ParBoX round even on a
// system deployed with WithCoalescedServing.
func WithNoCoalesce() ExecOption {
	return func(c *execConfig) { c.noCoalesce = true }
}

// Result is the unified outcome of one Exec call: the per-mode report
// plus common accounting, so callers can meter any mode the same way.
type Result struct {
	// Mode and Algorithm echo what ran (AlgoHybrid reports the branch it
	// took as-is, i.e. Algorithm stays AlgoHybrid).
	Mode      Mode
	Algorithm Algorithm

	// Answer is the Boolean answer (ModeBoolean and ModeMaterialize; for
	// batched runs, the primary query's answer).
	Answer bool
	// Answers holds every answer of a batched run, primary query first.
	Answers []bool
	// Matched is the number of selected nodes (ModeSelect, ModeCount).
	Matched int64

	// Common accounting, copied from the mode's Report by one rule
	// (account), so callers can meter any mode the same way. For a
	// coalesced call, Bytes/Messages/TotalSteps/Visits (and the cache
	// counters) are the caller's fair share of the shared round — shares
	// across the round's callers sum exactly to the round totals; the full
	// round lives in Sched.Round. SimTime is not split: it is the round's
	// modeled makespan, which every caller of the round experienced in
	// full.
	Bytes      int64
	Messages   int64
	TotalSteps int64
	Visits     map[SiteID]int64
	SimTime    time.Duration
	// CacheHits/CacheMisses count fragments answered from the sites'
	// versioned triplet caches versus fragments that ran bottomUp (always
	// zero unless the system was deployed with WithTripletCache).
	CacheHits, CacheMisses int64
	// Failovers is the Report's, in every mode: the retries this call
	// drew from its per-query budget (WithRetryBudget) — failed site calls
	// re-placed onto surviving replicas plus whole-round retries — so
	// never more than the budget, and always zero unless the system was
	// deployed with WithFailover. A coalesced call reports the shared
	// round's, unsplit: every caller rode through the same recoveries. A
	// non-zero value means the answer was computed despite failures — it
	// is still exactly correct.
	Failovers int64
	// Hedges counts speculative duplicate calls this run issued against
	// slow replicas' next-best siblings; HedgeWins counts how many of them
	// answered first. Only the winning attempt of a hedged pair counts in
	// Bytes/Messages/TotalSteps. Always zero unless the system was
	// deployed with WithHedging.
	Hedges, HedgeWins int64
	// Duration is the measured wall-clock time of the whole call.
	Duration time.Duration

	// Spans is the call's reconstructed trace — every transport hop plus
	// the remote sites' own queue/admission/handler/bottomUp/encode
	// timings, piggybacked back over the wire — as a flat list linked by
	// parent IDs into one tree. Filled under WithSpans or WithTrace; nil
	// otherwise. For a coalesced call, every traced caller of the round
	// shares ONE slice: the round's spans plus a "lane" span per traced
	// round-mate (the lane attr is the caller's slot). Treat it as
	// read-only — mutating it corrupts the round-mates' results.
	Spans []obs.Span

	// Sched reports the shared round for calls served by the coalescing
	// scheduler (WithCoalescing or a WithCoalescedServing system); nil for
	// calls that ran their own round.
	Sched *SchedInfo

	// The mode's full report, under the mode's name; at most one is
	// non-nil (all nil for a coalesced call, whose round report is
	// Sched.Round).
	Boolean   *Report
	Batch     *BatchResult
	Selection *SelectionResult
	Counting  *CountResult
	View      *View
}

// account copies a report's accounting into the result — the one copy
// rule, whatever the mode.
func (r *Result) account(rep *Report) {
	r.SimTime = rep.SimTime
	r.Bytes = rep.Bytes
	r.Messages = rep.Messages
	r.TotalSteps = rep.TotalSteps
	r.CacheHits, r.CacheMisses = rep.CacheHits, rep.CacheMisses
	r.Failovers = rep.Failovers
	r.Hedges, r.HedgeWins = rep.Hedges, rep.HedgeWins
	// Copy: the report keeps its own map, so a caller mutating
	// Result.Visits cannot corrupt the raw report (or vice versa).
	if rep.Visits != nil {
		r.Visits = make(map[SiteID]int64, len(rep.Visits))
		for k, v := range rep.Visits {
			r.Visits[k] = v
		}
	}
}

// Exec runs a prepared query against the deployed document. With no
// options it is the paper's headline configuration: ModeBoolean under
// AlgoParBoX. Exec is safe for concurrent use — any number of calls, of
// any mix of modes and algorithms, may run against one System at once;
// each run keeps its own accounting and the sites key any cached protocol
// state by a unique run identifier.
func (s *System) Exec(ctx context.Context, q *Prepared, opts ...ExecOption) (*Result, error) {
	if q == nil {
		return nil, errors.New("parbox: Exec requires a prepared query (see Prepare)")
	}
	cfg := execConfig{algo: AlgoParBoX}
	for _, opt := range opts {
		opt(&cfg)
	}
	if !cfg.algo.Valid() {
		return nil, fmt.Errorf("parbox: invalid algorithm %v", cfg.algo)
	}
	if !cfg.mode.Valid() {
		return nil, fmt.Errorf("parbox: invalid mode %v", cfg.mode)
	}
	// Only AlgoParBoX implements the non-Boolean modes and batching.
	if cfg.algo != AlgoParBoX && (cfg.mode != ModeBoolean || cfg.batchSet) {
		what := cfg.mode.String() + " mode"
		if cfg.batchSet {
			what = "batched execution"
		}
		return nil, fmt.Errorf("parbox: %s supports only %v, not %v", what, AlgoParBoX, cfg.algo)
	}
	if cfg.mode != ModeBoolean && cfg.batchSet {
		return nil, fmt.Errorf("parbox: WithBatch applies only to %v mode", ModeBoolean)
	}
	if cfg.coalesce && cfg.noCoalesce {
		return nil, errors.New("parbox: WithCoalescing and WithNoCoalesce are mutually exclusive")
	}
	if cfg.coalesce {
		switch {
		case cfg.mode != ModeBoolean || cfg.algo != AlgoParBoX:
			return nil, fmt.Errorf("parbox: WithCoalescing supports only %v mode under %v, not %v/%v",
				ModeBoolean, AlgoParBoX, cfg.mode, cfg.algo)
		case cfg.batchSet:
			return nil, errors.New("parbox: WithCoalescing cannot combine with WithBatch (the scheduler already batches)")
		}
	}
	if cfg.timeoutSet {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// Route through the coalescing scheduler when asked to (explicitly, or
	// by the system default set at deployment) and the call shape allows
	// it. A precompiled query (Optimized) runs solo — the scheduler fuses
	// from the parsed form, which would silently discard the minimized
	// program. Traced calls ride along: the round collects one shared span
	// tree and the scheduler attributes each caller's lane.
	if (cfg.coalesce || (s.coalesceDefault && !cfg.noCoalesce)) && !q.precompiled &&
		cfg.mode == ModeBoolean && cfg.algo == AlgoParBoX && !cfg.batchSet {
		return s.sched.exec(ctx, q, cfg.trace, cfg.spans)
	}
	eng := s.eng()
	// Span collection: give the run a fresh trace identity so every hop it
	// takes — transport calls here, and queue/admission/handler/bottomUp
	// brackets on the sites, piggybacked back over the wire — lands in one
	// collector. The root span brackets the whole call.
	var spanCol *obs.Collector
	var rootSpan obs.Span
	if cfg.spans || cfg.trace != nil {
		spanCol = obs.NewCollector()
		rootSpan = obs.Span{TraceID: obs.NewTraceID(), ID: obs.NewSpanID(),
			Site: "coordinator", Name: "exec " + cfg.mode.String()}
		ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: rootSpan.TraceID, SpanID: rootSpan.ID, Collector: spanCol})
	}

	res := &Result{Mode: cfg.mode, Algorithm: cfg.algo}
	start := time.Now()
	// Every mode fills the one report; retries and failover happen inside
	// core, the same way for all of them.
	rep := new(Report)
	var err error
	switch cfg.mode {
	case ModeBoolean:
		if !cfg.batchSet {
			*rep, err = eng.Run(ctx, cfg.algo, q.program())
			res.Boolean, res.Answer = rep, rep.Answer
			break
		}
		exprs := make([]xpath.Expr, 0, 1+len(cfg.batch))
		exprs = append(exprs, q.expr)
		for _, extra := range cfg.batch {
			if extra == nil {
				return nil, errors.New("parbox: WithBatch given a nil query")
			}
			exprs = append(exprs, extra.expr)
		}
		prog, roots := xpath.CompileBatch(exprs)
		if *rep, err = eng.ParBoXBatch(ctx, prog, roots); err == nil {
			res.Batch, res.Answer = rep, rep.Answers[0]
			// Copy, like Visits in account: the raw report keeps its own
			// slice so callers can post-process Result.Answers freely.
			res.Answers = append([]bool(nil), rep.Answers...)
		}
	case ModeSelect, ModeCount:
		var sp *xpath.SelectProgram
		if sp, err = q.selectProgram(); err != nil {
			return nil, err
		}
		if cfg.mode == ModeSelect {
			*rep, err = eng.SelectParBoX(ctx, sp)
			res.Selection = rep
		} else {
			*rep, err = eng.CountParBoX(ctx, sp)
			res.Counting = rep
		}
		res.Matched = rep.Count
	case ModeMaterialize:
		var v *views.View
		v, *rep, err = views.MaterializeBounded(ctx, s.cluster, eng.Coordinator(), eng.SourceTree(),
			q.program(), s.maxInflight, s.cluster.Cost())
		if err == nil {
			res.View = &View{v: v}
			res.Answer = v.Answer()
		}
	}
	res.Duration = time.Since(start)
	if spanCol != nil {
		// A failed run keeps its trace too: that is exactly when it
		// matters.
		rootSpan.Start = start.UnixNano()
		rootSpan.Dur = res.Duration.Nanoseconds()
		spanCol.Add(rootSpan)
		res.Spans = spanCol.Spans()
		rec := obs.TraceRecord{TraceID: rootSpan.TraceID, Root: rootSpan.Name,
			Dur: res.Duration, At: start, Spans: res.Spans}
		if s.obsRing != nil {
			s.obsRing.Add(rec)
		}
		if cfg.trace != nil {
			obs.RenderTrace(cfg.trace, rec)
		}
	}
	if err != nil {
		return nil, err
	}
	res.account(rep)
	return res, nil
}
