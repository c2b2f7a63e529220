// Package serve is the replica-aware serving tier layered between the
// facade/scheduler and core's scatter/gather engine. Deploy-time
// replication (core.ReplicaMap, Section 8 of the paper) gives every
// fragment several homes; this package decides, per round and per
// failed call, WHICH home serves it:
//
//   - health tracking: per-site up/suspect/down state driven by
//     lightweight probes plus passive signals from every engine call,
//     with hysteresis so a single timeout does not flap a site;
//   - replica routing: each round plans a fresh source tree picking the
//     best live replica of every fragment by a load-balanced score
//     (latency EWMA × in-flight count), replacing the static
//     deploy-time PlanPlacement choice;
//   - in-flight failover: the engine's scatter layer calls Reassign for
//     a failed job, re-placing its fragments on surviving replicas; a
//     fragment with zero live replicas fails the query with
//     core.ErrFragmentUnavailable — answers are exactly correct or
//     loudly absent, never silently partial;
//   - live rebalancing: a background pass migrates hot fragments to
//     underloaded replicas through the ordinary fragment codecs and the
//     durable store, version-bumping so triplet caches invalidate.
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// MetricsSource is the slice of cluster.Metrics the tier reads: the
// rebalancer's traffic window is each site's visit count.
type MetricsSource interface {
	Site(id frag.SiteID) obs.SiteStatsSnapshot
}

// Tier is the serving tier. It implements core.Tier; attach it with
// Engine.SetTier. Safe for concurrent use.
type Tier struct {
	tr     cluster.Transport
	coord  frag.SiteID
	forest *frag.Forest
	opt    Options

	health  *healthTracker
	metrics MetricsSource

	mu       sync.RWMutex
	replicas core.ReplicaMap

	plans, reassigns, migrations atomic.Int64
	probes, probeFails           atomic.Int64
	hedges                       atomic.Int64

	// probeMu guards the background prober's per-site backoff schedule
	// (failing sites are probed at decaying, not full, rate).
	probeMu    sync.Mutex
	probeSched map[frag.SiteID]*probeSchedule

	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	rb        RebalanceOptions
	rebalance bool

	// lastVisits is the rebalancer's per-site visit baseline: each pass
	// acts on the traffic window since the previous pass.
	lastVisits map[frag.SiteID]int64
}

// NewTier builds a tier over a replicated deployment: tr is the SAME
// transport the engine calls through (probes must see what queries
// see), coord the coordinating site, forest the fragment structure, and
// replicas the deploy-time replica map (copied; the rebalancer mutates
// the tier's own copy).
func NewTier(tr cluster.Transport, coord frag.SiteID, forest *frag.Forest, replicas core.ReplicaMap, opt Options) *Tier {
	rm := make(core.ReplicaMap, len(replicas))
	for id, sites := range replicas {
		rm[id] = append([]frag.SiteID(nil), sites...)
	}
	t := &Tier{
		tr:       tr,
		coord:    coord,
		forest:   forest,
		opt:      opt.withDefaults(),
		replicas: rm,
		stop:     make(chan struct{}),
	}
	t.health = newHealthTracker(t.opt, t.sites())
	return t
}

// AttachMetrics feeds the cluster's visit counts to the rebalancer.
func (t *Tier) AttachMetrics(m MetricsSource) { t.metrics = m }

// sites returns every site appearing in the replica map, sorted.
func (t *Tier) sites() []frag.SiteID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seen := make(map[frag.SiteID]bool)
	for _, sites := range t.replicas {
		for _, s := range sites {
			seen[s] = true
		}
	}
	out := make([]frag.SiteID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Replicas returns a copy of the current replica map (the rebalancer
// moves entries at runtime).
func (t *Tier) Replicas() core.ReplicaMap {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(core.ReplicaMap, len(t.replicas))
	for id, sites := range t.replicas {
		out[id] = append([]frag.SiteID(nil), sites...)
	}
	return out
}

// Health returns the per-site health snapshot.
func (t *Tier) Health() map[frag.SiteID]SiteStatus { return t.health.snapshot() }

// Stats are the tier's cumulative counters.
type Stats struct {
	// Plans counts full per-round placements, Reassigns in-flight
	// failover re-placements.
	Plans, Reassigns int64
	// Probes/ProbeFailures count active health probes.
	Probes, ProbeFailures int64
	// Migrations counts fragments the rebalancer moved.
	Migrations int64
	// Hedges counts speculative duplicate requests the tier planned
	// (armed timers that fired may be fewer; see core's Report for
	// launched/won counts).
	Hedges int64
}

func (t *Tier) Stats() Stats {
	return Stats{
		Plans:         t.plans.Load(),
		Reassigns:     t.reassigns.Load(),
		Probes:        t.probes.Load(),
		ProbeFailures: t.probeFails.Load(),
		Migrations:    t.migrations.Load(),
		Hedges:        t.hedges.Load(),
	}
}

// Started/Finished implement core.Tier's passive health bracket.
func (t *Tier) Started(site frag.SiteID) { t.health.started(site) }
func (t *Tier) Finished(site frag.SiteID, rtt time.Duration, err error) {
	t.health.finished(site, rtt, err)
}

// PlanRound implements core.Tier: resolve every fragment to its best
// live replica and build the round's source tree.
func (t *Tier) PlanRound() (*frag.SourceTree, error) {
	assign, err := t.planAssign(nil, nil)
	if err != nil {
		return nil, err
	}
	t.plans.Add(1)
	return frag.BuildSourceTree(t.forest, assign)
}

// Reassign implements core.Tier: re-place the given fragments excluding
// the sites that already failed this round, and every shedding site: a
// re-placement runs at once, never after the retry-after a shed asked
// for, so placing work on a shedding site only spends the query's retry
// budget on a call certain to fail. A fragment whose other replicas all
// shed is left to the round-level retry, which waits.
func (t *Tier) Reassign(ids []xmltree.FragmentID, exclude map[frag.SiteID]bool) (map[frag.SiteID][]xmltree.FragmentID, error) {
	skip := make(map[frag.SiteID]bool, len(exclude))
	for site, ex := range exclude {
		skip[site] = ex
	}
	for _, site := range t.sites() {
		if rank, ok := t.health.rank(site); ok && rank == rankShedding {
			skip[site] = true
		}
	}
	assign, err := t.planAssign(ids, skip)
	if err != nil {
		return nil, err
	}
	t.reassigns.Add(1)
	out := make(map[frag.SiteID][]xmltree.FragmentID)
	for _, id := range ids {
		site := assign[id]
		out[site] = append(out[site], id)
	}
	for _, frs := range out {
		sort.Slice(frs, func(i, j int) bool { return frs[i] < frs[j] })
	}
	return out, nil
}

// planAssign picks a site for each requested fragment (nil only = every
// fragment in the replica map). Eligible replicas are the non-excluded,
// non-Down ones; Up beats Suspect beats shedding (see healthTracker.rank);
// among equals the load-balanced score decides — smoothed latency × (1 + in-flight + already planned here) —
// with the site ID as the deterministic tie-break. A fragment with no
// eligible replica fails the plan with core.ErrFragmentUnavailable.
func (t *Tier) planAssign(only []xmltree.FragmentID, exclude map[frag.SiteID]bool) (frag.Assignment, error) {
	t.mu.RLock()
	replicas := t.replicas
	ids := only
	if ids == nil {
		ids = make([]xmltree.FragmentID, 0, len(replicas))
		for id := range replicas {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	// Snapshot the replica lists under the lock (the rebalancer mutates
	// the map).
	choice := make(map[xmltree.FragmentID][]frag.SiteID, len(ids))
	for _, id := range ids {
		choice[id] = append([]frag.SiteID(nil), replicas[id]...)
	}
	t.mu.RUnlock()

	base := t.baseScore()
	assign := make(frag.Assignment, len(ids))
	planLoad := make(map[frag.SiteID]int64)
	for _, id := range ids {
		cands := choice[id]
		if len(cands) == 0 {
			return nil, fmt.Errorf("%w: fragment %d is not in the replica map", core.ErrFragmentUnavailable, id)
		}
		var best frag.SiteID
		bestRank := -1
		var bestScore float64
		for _, site := range cands {
			if exclude[site] {
				continue
			}
			rank, ok := t.health.rank(site)
			if !ok {
				continue
			}
			score := t.score(site, base, planLoad[site])
			better := bestRank < 0 ||
				rank < bestRank ||
				(rank == bestRank && (score < bestScore || (score == bestScore && site < best)))
			if better {
				best, bestRank, bestScore = site, rank, score
			}
		}
		if bestRank < 0 {
			return nil, fmt.Errorf("%w: fragment %d (replicas %v all down)", core.ErrFragmentUnavailable, id, cands)
		}
		assign[id] = best
		planLoad[best]++
	}
	return assign, nil
}

// baseScore is the latency assumed for sites never observed: the mean of
// the health tracker's known EWMAs, or 1ns when nothing is known
// anywhere — then the in-flight/plan-count term alone balances the load.
func (t *Tier) baseScore() float64 {
	var sum float64
	var n int
	for _, site := range t.sites() {
		if e, _ := t.health.load(site); e > 0 {
			sum += e
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// score is the load-balanced routing score of one site: smoothed latency
// times one plus its outstanding work (calls in flight plus fragments
// already planned onto it this round). Lower is better.
func (t *Tier) score(site frag.SiteID, base float64, planned int64) float64 {
	ewma, inflight := t.health.load(site)
	if ewma == 0 {
		ewma = base
	}
	return ewma * float64(1+inflight+planned)
}

// PlanHedge implements core.Tier: pick the best-scored live
// site besides primary that replicates ALL of ids, and the delay to arm
// the hedge timer with — the fixed Options.HedgeDelay, or (when 0) the
// primary's observed latency p95. Declines when hedging is off, no such
// site exists, or dynamic mode has no p95 yet (a hedge armed on zero
// information would fire instantly and double every call).
func (t *Tier) PlanHedge(primary frag.SiteID, ids []xmltree.FragmentID) (frag.SiteID, time.Duration, bool) {
	if !t.opt.Hedging || len(ids) == 0 {
		return "", 0, false
	}
	delay := t.opt.HedgeDelay
	if delay <= 0 {
		if delay = t.health.p95(primary); delay <= 0 {
			return "", 0, false
		}
	}
	// Candidates: sites holding a replica of every fragment of the job.
	t.mu.RLock()
	var cands map[frag.SiteID]bool
	for _, id := range ids {
		here := make(map[frag.SiteID]bool, len(t.replicas[id]))
		for _, s := range t.replicas[id] {
			if s != primary {
				here[s] = true
			}
		}
		if cands == nil {
			cands = here
			continue
		}
		for s := range cands {
			if !here[s] {
				delete(cands, s)
			}
		}
		if len(cands) == 0 {
			break
		}
	}
	t.mu.RUnlock()

	base := t.baseScore()
	var best frag.SiteID
	bestRank := -1
	var bestScore float64
	for site := range cands {
		rank, ok := t.health.rank(site)
		if !ok || rank == rankShedding {
			continue // a hedge to a shedding site is a call certain to fail
		}
		score := t.score(site, base, 0)
		better := bestRank < 0 ||
			rank < bestRank ||
			(rank == bestRank && (score < bestScore || (score == bestScore && site < best)))
		if better {
			best, bestRank, bestScore = site, rank, score
		}
	}
	if bestRank < 0 {
		return "", 0, false
	}
	t.hedges.Add(1)
	return best, delay, true
}

// HedgeLost implements core.Tier: the hedge on a job won,
// so its primary demonstrably took at least elapsed. The loser's call is
// cancelled — it never produces an RTT sample of its own — so this floor
// is the router's only way to learn that a hedged-around replica is
// slow; without it the site keeps scoring as average and keeps being
// offered work it always loses.
func (t *Tier) HedgeLost(primary frag.SiteID, elapsed time.Duration) {
	t.health.floorSample(primary, elapsed)
}

// Start launches the background prober (and the rebalancer, when
// configured via StartRebalancer before Start). Stop with Stop.
func (t *Tier) Start() {
	if t.opt.ProbeInterval > 0 {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			ticker := time.NewTicker(t.opt.ProbeInterval)
			defer ticker.Stop()
			for {
				select {
				case <-t.stop:
					return
				case <-ticker.C:
					t.probeSweep(context.Background())
				}
			}
		}()
	}
	if t.rebalance && t.rb.Interval > 0 {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			ticker := time.NewTicker(t.rb.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-t.stop:
					return
				case <-ticker.C:
					t.RebalanceOnce(context.Background())
				}
			}
		}()
	}
}

// Stop terminates the background goroutines and waits for them.
func (t *Tier) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.wg.Wait()
}
