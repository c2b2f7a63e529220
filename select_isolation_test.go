package parbox

import (
	"context"
	"sort"
	"testing"

	"repro/internal/xmark"
)

// TestSelectionLeavesUpdatePathAlone: selections are read-only on the
// update path. On one cached deployment with a materialized view and a
// standing subscription, the same View.Update costs the same maintenance
// — per-site spine and full recomputations, and applyUpdate steps —
// before and after a burst of ModeSelect and ModeCount over the four
// XMark selection queries. Selection programs are never registered for
// maintenance, so the burst must leave nothing an update would work on.
func TestSelectionLeavesUpdatePathAlone(t *testing.T) {
	forest, assign := failoverForest(t)
	sys, err := Deploy(forest, assign, WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	q := MustPrepare(`//item[quantity] && //name`)
	res, err := sys.Exec(ctx, q, WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	view := res.View
	sub, err := sys.Subscribe(ctx, MustPrepare(`//keyword || //emph`))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	sites := sys.cluster.Sites()
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	recomputes := func() map[SiteID]uint64 {
		out := make(map[SiteID]uint64, len(sites))
		for _, id := range sites {
			site, _ := sys.cluster.Site(id)
			snap := site.Stats().Snapshot()
			out[id] = snap.SpineRecomputes + snap.FullRecomputes
		}
		return out
	}
	// cycle sets the text of fragment 1's first node and sets it back,
	// returning each update's steps and per-site recomputations.
	type cost struct {
		steps      int64
		recomputes map[SiteID]uint64
	}
	cycle := func() []cost {
		var out []cost
		for _, text := range []string{"changed", ""} {
			before := recomputes()
			mc, err := view.Update(ctx, 1, []UpdateOp{{Op: OpSetText, Path: []int{0}, Text: text}})
			if err != nil {
				t.Fatal(err)
			}
			after := recomputes()
			c := cost{steps: mc.Steps, recomputes: make(map[SiteID]uint64)}
			for _, id := range sites {
				c.recomputes[id] = after[id] - before[id]
			}
			out = append(out, c)
		}
		return out
	}
	cycle() // the first update of a fragment builds its planes
	baseline := cycle()
	for i, c := range baseline {
		var n uint64
		for _, r := range c.recomputes {
			n += r
		}
		if c.steps == 0 || n == 0 {
			t.Fatalf("update %d cost %d steps and %d recomputations: nothing to compare", i, c.steps, n)
		}
	}

	names := make([]string, 0, len(xmark.SelectionQueries))
	for name := range xmark.SelectionQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	for round := 0; round < 2; round++ {
		for _, name := range names {
			sq := MustPrepare(xmark.SelectionQueries[name])
			for _, mode := range []Mode{ModeSelect, ModeCount} {
				if _, err := sys.Exec(ctx, sq, WithMode(mode)); err != nil {
					t.Fatalf("%s %v: %v", name, mode, err)
				}
			}
		}
	}

	after := cycle()
	for i := range baseline {
		if after[i].steps != baseline[i].steps {
			t.Errorf("update %d: %d applyUpdate steps after the selections, %d before", i, after[i].steps, baseline[i].steps)
		}
		for _, id := range sites {
			if after[i].recomputes[id] != baseline[i].recomputes[id] {
				t.Errorf("update %d at %s: %d recomputations after the selections, %d before",
					i, id, after[i].recomputes[id], baseline[i].recomputes[id])
			}
		}
	}
}
