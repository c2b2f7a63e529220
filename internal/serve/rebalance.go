package serve

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/xmltree"
)

// RebalanceOptions tunes the live rebalancer.
type RebalanceOptions struct {
	// Interval is the background pass cadence when the tier is started;
	// <= 0 means manual passes only (RebalanceOnce).
	Interval time.Duration
	// HotRatio: a pass acts only when the busiest site saw more than
	// HotRatio times the traffic of the idlest (default 1.5).
	HotRatio float64
	// MinGap: and at least MinGap more visits (default 8) — tiny windows
	// should not trigger migrations.
	MinGap int64
	// Retire drops the hot site from the migrated fragment's replica
	// list (a true migration; the copy stays on disk but is never routed
	// to). The default keeps both — replica expansion, which only ever
	// widens a fragment's failover options.
	Retire bool
}

func (o RebalanceOptions) withDefaults() RebalanceOptions {
	if o.HotRatio <= 1 {
		o.HotRatio = 1.5
	}
	if o.MinGap <= 0 {
		o.MinGap = 8
	}
	return o
}

// StartRebalancer arms the background rebalancer; call before Start.
// Requires AttachMetrics (the rebalancer watches per-site visit counts).
func (t *Tier) StartRebalancer(opt RebalanceOptions) {
	t.rb = opt.withDefaults()
	t.rebalance = true
}

// RebalanceOnce runs one rebalancing pass over the traffic window since
// the previous pass: find the hottest and coldest live sites, and if the
// skew clears the thresholds, migrate the largest fragment the hot site
// serves exclusively of the cold one. The copy travels through the
// ordinary fragment codecs; Site.AddFragment journals it through the
// durable store and bumps its version, so stale cached triplets cannot
// be mistaken for the new replica's. Returns how many fragments moved
// (0 or 1).
func (t *Tier) RebalanceOnce(ctx context.Context) (int, error) {
	if t.metrics == nil {
		return 0, nil
	}
	rb := t.rb
	if !t.rebalance {
		rb = rb.withDefaults()
	}
	snap := t.metrics.Snapshot()
	sites := t.sites()
	if len(sites) < 2 {
		return 0, nil
	}

	// The traffic window since the last pass.
	t.mu.Lock()
	if t.lastVisits == nil {
		t.lastVisits = make(map[frag.SiteID]int64)
	}
	load := make(map[frag.SiteID]int64, len(sites))
	for _, s := range sites {
		load[s] = snap[s].Visits - t.lastVisits[s]
		t.lastVisits[s] = snap[s].Visits
	}
	t.mu.Unlock()

	var hot, cold frag.SiteID
	first := true
	for _, s := range sites {
		if first {
			hot, cold, first = s, s, false
			continue
		}
		if load[s] > load[hot] {
			hot = s
		}
		// Never migrate TO a dead site.
		if load[s] < load[cold] && t.health.state(s) != Down {
			cold = s
		}
	}
	if hot == cold || t.health.state(cold) == Down {
		return 0, nil
	}
	gap := load[hot] - load[cold]
	denom := load[cold]
	if denom < 1 {
		denom = 1
	}
	if gap < rb.MinGap || float64(load[hot]) < rb.HotRatio*float64(denom) {
		return 0, nil
	}

	id, ok := t.pickMigration(hot, cold)
	if !ok {
		return 0, nil
	}
	if err := t.migrate(ctx, id, hot, cold, rb.Retire); err != nil {
		return 0, err
	}
	t.migrations.Add(1)
	return 1, nil
}

// pickMigration chooses the largest fragment replicated on hot but not
// on cold (largest first shifts the most load per move).
func (t *Tier) pickMigration(hot, cold frag.SiteID) (xmltree.FragmentID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var cands []xmltree.FragmentID
	for id, sites := range t.replicas {
		onHot, onCold := false, false
		for _, s := range sites {
			if s == hot {
				onHot = true
			}
			if s == cold {
				onCold = true
			}
		}
		if onHot && !onCold {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	sort.Slice(cands, func(i, j int) bool {
		si, sj := 0, 0
		if fr, ok := t.forest.Fragment(cands[i]); ok {
			si = fr.Size()
		}
		if fr, ok := t.forest.Fragment(cands[j]); ok {
			sj = fr.Size()
		}
		if si != sj {
			return si > sj
		}
		return cands[i] < cands[j]
	})
	return cands[0], true
}

// migrate copies fragment id onto the cold site and updates the routing
// table; serving never stops — rounds planned during the copy simply use
// the old map.
func (t *Tier) migrate(ctx context.Context, id xmltree.FragmentID, hot, cold frag.SiteID, retire bool) error {
	// Read the fragment from its best live replica (hot may be mid-
	// failure; any live copy is as good).
	src := hot
	if t.health.state(src) == Down {
		t.mu.RLock()
		for _, s := range t.replicas[id] {
			if s != cold && t.health.state(s) != Down {
				src = s
				break
			}
		}
		t.mu.RUnlock()
		if t.health.state(src) == Down {
			return fmt.Errorf("%w: fragment %d (no live source replica)", ErrBadServeMessage, id)
		}
	}
	resp, _, err := t.tr.Call(ctx, t.coord, src, cluster.Request{
		Kind:    KindCloneFragment,
		Payload: encodeFragIDReq(id),
	})
	if err != nil {
		return fmt.Errorf("serve: cloning fragment %d from %s: %w", id, src, err)
	}
	parent, root, err := decodeCloneResp(resp.Payload)
	if err != nil {
		return err
	}
	if _, _, err := t.tr.Call(ctx, t.coord, cold, cluster.Request{
		Kind:    KindInstallFragment,
		Payload: encodeInstallReq(id, parent, root),
	}); err != nil {
		return fmt.Errorf("serve: installing fragment %d at %s: %w", id, cold, err)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	sites := t.replicas[id]
	out := make([]frag.SiteID, 0, len(sites)+1)
	for _, s := range sites {
		if retire && s == hot {
			continue
		}
		if s == cold {
			cold = "" // already present
		}
		out = append(out, s)
	}
	if cold != "" {
		out = append(out, cold)
	}
	t.replicas[id] = out
	return nil
}
