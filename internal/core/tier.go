package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/xmltree"
)

// ErrFragmentUnavailable is the loud-degradation contract of the serving
// tier: a query touching a fragment with zero live replicas fails with
// this error instead of returning a silently partial answer. Callers test
// with errors.Is.
var ErrFragmentUnavailable = errors.New("core: fragment has no live replica")

// Tier is the replica-aware serving tier's view from the engine
// (implemented by internal/serve; core must not import it). A nil tier
// means static placement: the engine serves its deploy-time source tree
// unchanged.
type Tier interface {
	// PlanRound resolves every fragment to its best live replica and
	// returns the resulting source tree for one round. It fails with (a
	// wrapped) ErrFragmentUnavailable when some fragment has no live
	// replica.
	PlanRound() (*frag.SourceTree, error)
	// Reassign re-places the given fragments after a failed scatter job,
	// excluding the listed sites on top of everything the tier already
	// considers down. The result groups the fragments by chosen site.
	Reassign(ids []xmltree.FragmentID, exclude map[frag.SiteID]bool) (map[frag.SiteID][]xmltree.FragmentID, error)
	// Started/Finished bracket every engine call to a site: the passive
	// health signal (Finished's err is nil on success; rtt is measured
	// wall time).
	Started(site frag.SiteID)
	Finished(site frag.SiteID, rtt time.Duration, err error)
	// Recheck synchronously probes every known site, refreshing health
	// state — the engine calls it between round-level retries so a
	// re-plan sees failures the coordinator did not observe directly.
	Recheck(ctx context.Context)
}

// HedgePlanner is the optional hedging capability of a serving tier
// (asserted with a type switch, so Tier implementers that predate it
// keep compiling). PlanHedge picks the next-best live replica able to
// serve all of ids besides primary, and the delay to arm the hedge
// timer with — the primary's observed latency p95, or the deployment's
// fixed override. ok=false declines (no other replica, hedging off).
type HedgePlanner interface {
	PlanHedge(primary frag.SiteID, ids []xmltree.FragmentID) (alt frag.SiteID, delay time.Duration, ok bool)
}

// HedgeLossReporter is the optional feedback half of hedging: when a
// hedge wins its race, the primary's call is cancelled and never yields
// an RTT sample, so the planner is told the primary took *at least*
// elapsed. Tiers use it to keep routing scores honest for replicas that
// are consistently hedged around (see serve.Tier.HedgeLost).
type HedgeLossReporter interface {
	HedgeLost(primary frag.SiteID, elapsed time.Duration)
}

// tierHedge adapts a tier's HedgePlanner to a scatter round's hedge
// hook, building the speculative job with the same constructor the round
// uses for failover re-placement. nil when the tier cannot hedge. Only
// pure jobs — where mk(site, ids) is equivalent on any replica — may
// pass a non-nil result to scatterHedged.
func tierHedge[T any](t Tier, mk func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[T]) scatterHedge[T] {
	hp, ok := t.(HedgePlanner)
	if !ok {
		return nil
	}
	lr, _ := t.(HedgeLossReporter)
	return func(j scatterJob[T]) (hedgePlan[T], bool) {
		if len(j.frags) == 0 {
			return hedgePlan[T]{}, false
		}
		alt, delay, ok := hp.PlanHedge(j.to, j.frags)
		if !ok {
			return hedgePlan[T]{}, false
		}
		plan := hedgePlan[T]{alt: mk(alt, j.frags), delay: delay}
		if lr != nil {
			primary := j.to
			plan.lost = func(elapsed time.Duration) { lr.HedgeLost(primary, elapsed) }
		}
		return plan, true
	}
}

// SetTier attaches a serving tier: from now on every query plans its own
// source tree through the tier (per-round replica routing), failed
// scatter jobs fail over to other live replicas and failed rounds are
// retried (see withRetry). Call during setup,
// before the engine serves; nil detaches.
func (e *Engine) SetTier(t Tier) { e.tier = t }

// Tier returns the attached serving tier (nil for static placement).
func (e *Engine) Tier() Tier { return e.tier }

// withRetry is the engine's one retry loop, and the first thing every
// public entry point runs its body through. Without a tier it is a plain
// call: one attempt on the engine itself, nothing allocated. So is a
// nested dispatch (Hybrid → ParBoX), recognised by the
// budget the engine copy already carries — the outer call owns both
// the plan and the budget, and retries do not nest. Otherwise the query
// gets one budget (SetRetryPolicy), carried by a private engine copy
// that each attempt binds to a source tree freshly planned through the
// tier, and shared by the two ways a query recovers:
//
//   - job-level failover inside an attempt (tierRetry): a failed pure
//     scatter job is re-placed onto other live replicas at once;
//   - round-level retry here: a failed attempt backs off (exponential,
//     full jitter, floored at a shed's retry-after hint — immediate
//     re-runs against a saturated or flapping site are the retry storms
//     this exists to prevent), re-probes site health and re-plans. This
//     covers what job-level failover cannot: nested hops the coordinator
//     never observed (FullDist's resolve cascade), stages bound to
//     per-site run state, and jobs whose replicas were all excluded
//     within one round.
//
// Cancellation, an expired deadline and ErrFragmentUnavailable are
// final. Report.Failovers is set here and nowhere else.
func (e *Engine) withRetry(ctx context.Context, attempt func(e *Engine) (Report, error)) (Report, error) {
	if e.tier == nil || e.rr != nil {
		return attempt(e)
	}
	run := *e
	run.rr = backoff.New(e.retryPol)
	for {
		var rep Report
		st, err := e.tier.PlanRound()
		if err == nil {
			run.st = st
			rep, err = attempt(&run)
		}
		if err == nil {
			rep.Failovers = int64(run.rr.Attempts())
			return rep, nil
		}
		if !retryableRoundErr(err) || ctx.Err() != nil {
			return Report{}, err
		}
		d, ok := run.rr.Next(cluster.RetryAfterHint(err))
		if !ok || backoff.Sleep(ctx, d) != nil {
			return Report{}, err
		}
		e.tier.Recheck(ctx)
	}
}

// tierRetry returns a scatter round's in-flight failover hook (nil
// without a tier): a job that failed at the transport re-places its
// fragments onto other live replicas through the tier, excluding every
// site that already failed this round. Sound only when the work is a
// pure function of the fragment list — any replica can serve it (evalQual,
// NaiveCentralized's fetches); stages that depend on per-site cached run
// state (FullDist's stage 2, the two-pass propagation levels) must not
// re-place jobs and instead recover by round retry.
//
// Re-placements draw on the query's retry budget rr but never sleep —
// the hook runs serially on the round's collector goroutine (so the
// exclusion set needs no lock), and the re-placed job targets a different
// site, so the backoff delay belongs to same-site retries only. With the
// budget spent, or no replica left outside this round's exclusion set,
// the hook declines and the original transport error stands: exhausting
// the exclusion set does not mean the replicas are gone — a shed means
// "try later" and a flake may pass next time — so the round-level retry
// re-probes and re-plans from scratch, and genuinely dead replicas still
// fail loudly there, with ErrFragmentUnavailable at planning.
func tierRetry[T any](t Tier, rr *backoff.Retry, mk func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[T]) scatterRetry[T] {
	if t == nil {
		return nil
	}
	excluded := make(map[frag.SiteID]bool)
	return func(j scatterJob[T]) []scatterJob[T] {
		if len(j.frags) == 0 {
			return nil
		}
		if _, ok := rr.Next(0); !ok {
			return nil
		}
		excluded[j.to] = true
		placement, err := t.Reassign(j.frags, excluded)
		if err != nil {
			return nil
		}
		return jobsBySite(placement, mk)
	}
}

// obs returns the scatter-level observation hook feeding the tier's
// passive health signals, or nil without a tier.
func (e *Engine) obs() tierObs {
	t := e.tier
	if t == nil {
		return nil
	}
	return func(to frag.SiteID) func(error) {
		t.Started(to)
		start := time.Now()
		return func(err error) { t.Finished(to, time.Since(start), err) }
	}
}

// retryableRoundErr reports whether a failed round is worth re-planning:
// cancellation is the caller's choice and ErrFragmentUnavailable cannot
// improve without a replica coming back.
func retryableRoundErr(err error) bool {
	return err != nil &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrFragmentUnavailable)
}
