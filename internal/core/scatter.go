package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/backoff"
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
	// (scatter's failover and hedging); empty for jobs that are not
	// per-fragment work.
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

// fanout is where a scatter round runs: the transport, the calling
// site, at most limit calls in flight (≤ 0: unbounded), the recorder
// (nil skips accounting) and, on a serving deployment, the tier and the
// query's retry budget (nil tier: static placement).
type fanout struct {
	tr    cluster.Transport
	from  frag.SiteID
	limit int
	rec   *recorder
	tier  Tier
	rr    *backoff.Retry
}

// fanout is the engine's own round: from the coordinator, through its
// tier.
func (e *Engine) fanout(rec *recorder) fanout {
	return fanout{tr: e.tr, from: e.coord, rec: rec, tier: e.tier, rr: e.rr}
}

// scatter is the engine's single fan-out/fan-in primitive, replacing
// the per-algorithm goroutine loops:
//
//   - jobs are issued through the transport's async path
//     (cluster.Go), so over the v2 TCP transport every call to one
//     site pipelines onto a single multiplexed connection;
//   - at most f.limit calls are in flight at once;
//   - the first failure cancels the round's remaining calls
//     (cancel-on-first-error), and the reported error is deterministic:
//     the lowest-job-index failure that is not a cancellation echo;
//   - results merge in job order — out[i] is job i's decoded value —
//     so callers that fold them are deterministic regardless of
//     completion order;
//   - accounting goes to f.rec, the tier (if any) observes every call
//     (Started/Finished) for its passive health tracking, and the
//     returned duration is the round's modeled makespan: the max of the
//     successful calls' cost.Total().
//
// With a tier, the jobs of a cluster.Pure kind may move: mk, which made
// them, builds the same job for other replicas. A job that fails at the
// transport (site dead, timeout — not a decode error) fails over: its
// fragments are re-placed through the tier onto other live replicas,
// excluding every site that already failed this round, and the job list
// grows, so results merge in launch order (originals first, replacements
// appended) — the pure callers fold triplets into a map and are
// order-insensitive. Re-placements draw on the query's retry budget
// f.rr but never sleep: the re-placed job targets a different site, so
// the backoff delay belongs to same-site retries only. With the budget
// spent, or no replica left outside the exclusion set, the original
// error stands, and withRetry re-probes and re-plans the round. A job
// also races a speculative duplicate on the replica the tier's
// PlanHedge picks once the primary has been quiet past the hedge delay.
// The first answer wins and is the only one recorded (a hedge must never
// double-count bytes, messages or steps); the loser is cancelled and its
// outcome feeds only the tier's health observation (where cancellation
// is neutral). Other kinds are bound to one site — they read run state
// that site cached — so a failed job has nowhere else to go; they pass
// a nil mk.
func scatter[T any](ctx context.Context, f fanout, jobs []scatterJob[T],
	mk func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[T]) ([]T, time.Duration, error) {
	n := len(jobs)
	if n == 0 {
		return make([]T, 0), 0, nil
	}
	tr, from, limit, rec, tier := f.tr, f.from, f.limit, f.rec, f.tier
	pure := tier != nil && mk != nil && cluster.ClassOf(jobs[0].req.Kind) == cluster.Pure
	var excluded map[frag.SiteID]bool
	// replace re-places a failed job (nil declines). It runs serially on
	// the round's collector goroutine, so excluded needs no lock.
	replace := func(j scatterJob[T]) []scatterJob[T] {
		if len(j.frags) == 0 {
			return nil
		}
		if _, ok := f.rr.Next(0); !ok {
			return nil
		}
		if excluded == nil {
			excluded = make(map[frag.SiteID]bool)
		}
		excluded[j.to] = true
		placement, err := tier.Reassign(j.frags, excluded)
		if err != nil {
			return nil
		}
		return jobsBySite(placement, mk)
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
		if tier == nil {
			return <-cluster.Go(callCtx, tr, from, j.to, j.req)
		}
		tier.Started(j.to)
		start := time.Now()
		r := <-cluster.Go(callCtx, tr, from, j.to, j.req)
		tier.Finished(j.to, time.Since(start), r.Err)
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
			var (
				alt    frag.SiteID
				delay  time.Duration
				hedged bool
			)
			if pure && len(j.frags) > 0 {
				alt, delay, hedged = tier.PlanHedge(j.to, j.frags)
			}
			var r cluster.Reply
			won := j
			if !hedged {
				r = issue(ctx, j)
			} else {
				hj := mk(alt, j.frags)
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
								tier.HedgeLost(j.to, time.Since(primStart))
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
		if pure && a.transport && !failed && ctx.Err() == nil && !errors.Is(a.err, context.Canceled) {
			if repl := replace(a.job); len(repl) > 0 {
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
