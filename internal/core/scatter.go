package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/xmltree"
)

// sortedFragmentIDs returns a map's fragment-ID keys in ascending
// order — the deterministic scatter order of per-fragment rounds.
func sortedFragmentIDs[V any](m map[xmltree.FragmentID]V) []xmltree.FragmentID {
	ids := make([]xmltree.FragmentID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// scatterJob is one call of a scatter round: the target site, the
// request, and how to decode the response. dec runs concurrently with
// the other jobs' decodes (on the goroutine that received the reply),
// so it must touch only job-local state or synchronize explicitly; the
// call cost is passed in for callers that aggregate their own cost
// notion (NaiveCentralized sums transfer times over its serialized
// coordinator link).
type scatterJob[T any] struct {
	to  frag.SiteID
	req cluster.Request
	dec func(resp cluster.Response, cost cluster.CallCost) (T, error)
	// frags lists the fragments this job serves, for failover re-planning
	// (scatterHedged's retry hook); empty for jobs that are not per-fragment
	// work.
	frags []xmltree.FragmentID
}

// jobsBySite builds one job per site of a placement, in site order — the
// deterministic scatter order of per-site rounds.
func jobsBySite[T any](placement map[frag.SiteID][]xmltree.FragmentID, mk func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[T]) []scatterJob[T] {
	sites := make([]frag.SiteID, 0, len(placement))
	for site := range placement {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	jobs := make([]scatterJob[T], len(sites))
	for i, site := range sites {
		jobs[i] = mk(site, placement[site])
	}
	return jobs
}

// tierObs is the serving tier's per-call observation hook: called with
// the target site as a call launches; the returned func is called with
// the transport error (nil on success) when it completes. nil disables
// observation.
type tierObs func(to frag.SiteID) func(error)

// scatterRetry is scatterHedged's failover hook: given a job that failed at
// the transport (site dead, timeout — not a decode error), return the
// replacement jobs that re-place its fragments on other replicas. An
// empty replacement set declines, letting the original error stand. The
// hook runs serially on the round's collector goroutine.
type scatterRetry[T any] func(j scatterJob[T]) []scatterJob[T]

// hedgePlan is one armed hedge: the equivalent job on the next-best
// replica, the delay to arm the hedge timer with (the primary site's
// latency p95), and an optional loss-feedback hook — called with how
// long the primary had been outstanding when the hedge won, the only
// latency evidence a cancelled loser ever produces.
type hedgePlan[T any] struct {
	alt   scatterJob[T]
	delay time.Duration
	lost  func(elapsed time.Duration)
}

// scatterHedge is the speculative-retry hook: given a job about to
// launch, return the hedge plan for it. If the primary has not answered
// when the timer fires, the hedge launches and the first answer wins;
// the loser's context is cancelled. Only sound for pure jobs — work any
// replica can serve identically — so the hook declines (ok=false)
// everything else.
type scatterHedge[T any] func(j scatterJob[T]) (hedgePlan[T], bool)

// scatter is the engine's single fan-out/fan-in primitive, replacing
// the per-algorithm goroutine loops:
//
//   - jobs are issued through the transport's async path
//     (cluster.Go), so over the v2 TCP transport every call to one
//     site pipelines onto a single multiplexed connection;
//   - at most limit calls are in flight at once (limit ≤ 0 means
//     unbounded — every job launches immediately);
//   - the first failure cancels the round's remaining calls
//     (cancel-on-first-error), and the reported error is deterministic:
//     the lowest-job-index failure that is not a cancellation echo;
//   - results merge in job order — out[i] is job i's decoded value —
//     so callers that fold them are deterministic regardless of
//     completion order;
//   - accounting goes to rec (nil to skip) exactly as Engine.call
//     records it, obs (nil to skip) observes every call for the serving
//     tier's passive health tracking, and the returned duration is the
//     round's modeled makespan: the max of the successful calls'
//     cost.Total().
//
// It is for the stages whose jobs are bound to one site — they read run
// state that site cached — so a failed job has nowhere else to go; pure
// jobs take scatterHedged's hooks.
func scatter[T any](ctx context.Context, tr cluster.Transport, from frag.SiteID, limit int, rec *recorder,
	jobs []scatterJob[T], obs tierObs) ([]T, time.Duration, error) {
	return scatterHedged(ctx, tr, from, limit, rec, jobs, obs, nil, nil)
}

// scatterHedged is scatter plus the serving tier's two hooks for pure
// jobs. retry turns a transport failure into replacement jobs on other
// replicas (in-flight failover); the job list is then dynamic, so results
// merge in launch order (originals first, replacements appended) — the
// serving callers fold triplets into a map and are order-insensitive.
// hedge races jobs it accepts against a speculative duplicate on another
// replica once the primary has been quiet past the hedge delay. The
// first answer wins and is the only one recorded (a hedge must never
// double-count bytes, messages or steps); the loser is cancelled and its
// outcome feeds only the tier's health observation (where cancellation
// is neutral).
func scatterHedged[T any](ctx context.Context, tr cluster.Transport, from frag.SiteID, limit int, rec *recorder,
	jobs []scatterJob[T], obs tierObs, retry scatterRetry[T], hedge scatterHedge[T]) ([]T, time.Duration, error) {
	n := len(jobs)
	if n == 0 {
		return make([]T, 0), 0, nil
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type arrival struct {
		idx  int
		val  T
		ok   bool
		cost cluster.CallCost
		err  error
		// transport marks failures of the call itself (the failover
		// trigger) as opposed to decode errors (a protocol bug another
		// replica would reproduce).
		transport bool
		job       scatterJob[T]
	}
	arrivals := make(chan arrival, n)
	sem := make(chan struct{}, limit)
	// issue runs one attempt of a job, bracketing it with the tier's
	// health observation.
	issue := func(callCtx context.Context, j scatterJob[T]) cluster.Reply {
		var done func(error)
		if obs != nil {
			done = obs(j.to)
		}
		r := <-cluster.Go(callCtx, tr, from, j.to, j.req)
		if done != nil {
			done(r.Err)
		}
		return r
	}
	var launch func(idx int, j scatterJob[T])
	launch = func(idx int, j scatterJob[T]) {
		go func() {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				arrivals <- arrival{idx: idx, err: ctx.Err(), transport: true, job: j}
				return
			}
			var plan hedgePlan[T]
			hedged := false
			if hedge != nil {
				plan, hedged = hedge(j)
			}
			var r cluster.Reply
			won := j
			if !hedged {
				r = issue(ctx, j)
			} else {
				hj, delay := plan.alt, plan.delay
				// Race the primary against a delayed speculative duplicate.
				// The hedge shares the primary's concurrency slot: it is a
				// duplicate of admitted work, not new work, so it must not
				// queue behind (or starve) unlaunched jobs.
				type hres struct {
					r   cluster.Reply
					alt bool
				}
				res := make(chan hres, 2)
				primCtx, primCancel := context.WithCancel(ctx)
				altCtx, altCancel := context.WithCancel(ctx)
				primStart := time.Now()
				go func() { res <- hres{issue(primCtx, j), false} }()
				timer := time.NewTimer(delay)
				launched := false
				outstanding := 1
				var primFail cluster.Reply
				havePrimFail := false
				for decided := false; !decided; {
					select {
					case a := <-res:
						outstanding--
						switch {
						case a.r.Err == nil:
							r = a.r
							if a.alt {
								won = hj
								if rec != nil {
									rec.hedgeWin()
								}
								// The cancelled primary took at least this
								// long — the planner's only latency evidence
								// about a replica it keeps hedging around.
								if plan.lost != nil {
									plan.lost(time.Since(primStart))
								}
							}
							decided = true
						case outstanding > 0:
							// One attempt failed but its sibling is still
							// running: hold out for the sibling's answer.
							if !a.alt {
								primFail, havePrimFail = a.r, true
							}
						default:
							// No attempt left. Report the primary's failure
							// (deterministic, and the retry hook re-places
							// against the primary's site).
							if !a.alt || !havePrimFail {
								r = a.r
							} else {
								r = primFail
							}
							decided = true
						}
					case <-timer.C:
						if !launched {
							launched = true
							outstanding++
							if rec != nil {
								rec.hedge()
							}
							go func() { res <- hres{issue(altCtx, hj), true} }()
						}
					}
				}
				timer.Stop()
				primCancel() // cancel the loser; the winner already answered
				altCancel()
			}
			<-sem
			if r.Err != nil {
				arrivals <- arrival{idx: idx, err: r.Err, transport: true, job: j}
				return
			}
			if rec != nil {
				rec.record(from, won.to, r.Cost, r.Resp)
			}
			v, err := won.dec(r.Resp, r.Cost)
			if err != nil {
				arrivals <- arrival{idx: idx, cost: r.Cost, err: err, job: j}
				return
			}
			arrivals <- arrival{idx: idx, val: v, ok: true, cost: r.Cost}
		}()
	}
	for i := range jobs {
		launch(i, jobs[i])
	}
	var sim time.Duration
	vals := make(map[int]T, n)
	errs := make(map[int]error)
	next := n // next launch index (replacement jobs extend the round)
	pending := n
	failed := false
	for pending > 0 {
		a := <-arrivals
		pending--
		if a.ok {
			vals[a.idx] = a.val
			if a.cost.Total() > sim {
				sim = a.cost.Total()
			}
			continue
		}
		if retry != nil && a.transport && !failed && ctx.Err() == nil && !errors.Is(a.err, context.Canceled) {
			if repl := retry(a.job); len(repl) > 0 {
				for _, rj := range repl {
					launch(next, rj)
					next++
					pending++
				}
				continue
			}
		}
		errs[a.idx] = a.err
		failed = true
		cancel() // stop the round's remaining work
	}
	if failed {
		// The genuine failure, not a sibling's cancellation echo; if
		// everything is a cancellation (the parent context expired), the
		// lowest index still wins.
		for idx := 0; idx < next; idx++ {
			if err := errs[idx]; err != nil && !errors.Is(err, context.Canceled) {
				return nil, sim, err
			}
		}
		for idx := 0; idx < next; idx++ {
			if err := errs[idx]; err != nil {
				return nil, sim, err
			}
		}
	}
	out := make([]T, 0, len(vals))
	for idx := 0; idx < next; idx++ {
		if v, ok := vals[idx]; ok {
			out = append(out, v)
		}
	}
	return out, sim, nil
}
