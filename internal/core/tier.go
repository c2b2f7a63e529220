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
	// PlanHedge picks the next-best live replica able to serve all of ids
	// besides primary, and the delay to arm the hedge timer with — the
	// primary's observed latency p95, or the deployment's fixed
	// override. ok=false declines (no other replica, hedging off).
	PlanHedge(primary frag.SiteID, ids []xmltree.FragmentID) (alt frag.SiteID, delay time.Duration, ok bool)
	// HedgeLost reports that a hedge won its race: the primary's call was
	// cancelled and never yields an RTT sample, so the tier is told it
	// took at least elapsed — keeping routing scores honest for replicas
	// that are consistently hedged around.
	HedgeLost(primary frag.SiteID, elapsed time.Duration)
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
//   - job-level failover inside an attempt (scatter): a failed job of
//     a Pure kind is re-placed onto other live replicas at once;
//   - round-level retry here: a failed attempt backs off (exponential,
//     full jitter, floored at a shed's retry-after hint — immediate
//     re-runs against a saturated or flapping site are the retry storms
//     this exists to prevent), re-probes site health and re-plans. This
//     covers what job-level failover cannot: nested hops the coordinator
//     never observed (the site-to-site resolve of NaiveDistributed and
//     FullDist), stages bound to per-site run state, and jobs whose
//     replicas were all excluded within one round.
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

// retryableRoundErr reports whether a failed round is worth re-planning:
// cancellation is the caller's choice and ErrFragmentUnavailable cannot
// improve without a replica coming back.
func retryableRoundErr(err error) bool {
	return err != nil &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrFragmentUnavailable)
}
