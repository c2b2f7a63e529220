package views

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// MaintenanceCost is the accounting of one maintenance operation, so tests
// (and EXPERIMENTS.md) can verify the paper's bounds: traffic independent
// of |T| and of the update size; recomputation localized to the updated
// fragment.
type MaintenanceCost struct {
	Bytes        int64
	Steps        int64
	SolveWork    int64
	SitesVisited []frag.SiteID
	Recomputed   bool // whether evalST had to re-run
	Elapsed      time.Duration
}

// View is a materialized Boolean XPath view M(q, T): the source tree, the
// cached answer, and — per Section 5 — the triplets of every fragment. The
// view lives at a "home" site (the paper's site S storing the state).
//
// Triplets are stored as ids into one long-lived arena: formulas arriving
// from the sites are hash-consed on decode, so the per-update "did the
// triplet change at all?" comparison — the gate that lets incremental
// maintenance terminate without re-solving — is a handful of integer
// compares instead of a structural formula walk.
type View struct {
	tr   cluster.Transport
	home frag.SiteID
	prog *xpath.Program

	mu       sync.Mutex
	st       *frag.SourceTree
	arena    *boolexpr.Arena
	triplets map[xmltree.FragmentID]eval.Triplet
	ans      bool
	nextID   xmltree.FragmentID
}

// compact bounds the view arena's growth (eval.CompactTriplets). It must
// run at most once per maintenance operation, BEFORE any triplet of that
// operation is decoded into the arena. Callers hold v.mu.
func (v *View) compact() {
	v.arena = eval.CompactTriplets(v.arena, v.triplets)
}

// Materialize computes the view's initial state by running stage 2 of
// ParBoX over all sites and solving the equation system at the home site.
func Materialize(ctx context.Context, tr cluster.Transport, home frag.SiteID,
	st *frag.SourceTree, prog *xpath.Program) (*View, error) {
	v, _, err := MaterializeReport(ctx, tr, home, st, prog, cluster.CostModel{})
	return v, err
}

// MaterializeReport is Materialize that also returns the round's
// accounting (core.GatherTriplets), with the solve priced by cost.
func MaterializeReport(ctx context.Context, tr cluster.Transport, home frag.SiteID,
	st *frag.SourceTree, prog *xpath.Program, cost cluster.CostModel) (*View, core.Report, error) {
	v := &View{
		tr:    tr,
		home:  home,
		prog:  prog,
		st:    st.Clone(),
		arena: boolexpr.NewArena(),
	}
	for _, id := range st.Fragments() {
		if id >= v.nextID {
			v.nextID = id + 1
		}
	}
	// One scatter/gather round over all sites (the same fan-out layer the
	// query engine uses), the triplets interned into the view arena.
	triplets, rep, err := core.GatherTriplets(ctx, tr, home, v.st, prog, cost, v.arena)
	if err != nil {
		return nil, core.Report{}, fmt.Errorf("views: materialize: %w", err)
	}
	v.triplets, v.ans = triplets, rep.Answer
	return v, rep, nil
}

// SetTransport replaces the transport used by subsequent maintenance
// calls. Callers that materialize through a per-run wrapper (tracing,
// fault injection) use it to hand the long-lived view the durable
// transport.
func (v *View) SetTransport(tr cluster.Transport) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tr = tr
}

// Answer returns the cached answer — reading a materialized view costs
// nothing.
func (v *View) Answer() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.ans
}

// Query returns the view's query program.
func (v *View) Query() *xpath.Program { return v.prog }

// SourceTree returns a copy of the view's source tree.
func (v *View) SourceTree() *frag.SourceTree {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.st.Clone()
}

// Update applies content updates (insNode/delNode/setText) to fragment id
// and incrementally maintains the answer: only the owning site is visited,
// only that fragment is re-evaluated, and the equation system is re-solved
// at the home site only if the fragment's triplet actually changed.
func (v *View) Update(ctx context.Context, id xmltree.FragmentID, ops []UpdateOp) (MaintenanceCost, error) {
	start := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.compact()
	var mc MaintenanceCost
	entry, ok := v.st.Entry(id)
	if !ok {
		return mc, fmt.Errorf("views: unknown fragment %d", id)
	}
	if len(ops) == 0 {
		// Nothing to apply: a true no-op — no site visit, no version bump,
		// no cache invalidation, zero MaintenanceCost.
		return mc, nil
	}
	resp, cost, err := v.tr.Call(ctx, v.home, entry.Site, cluster.Request{
		Kind:    KindApplyUpdate,
		Payload: encodeApplyUpdateReq(v.prog.Encode(), id, ops),
	})
	if err != nil {
		return mc, err
	}
	mc.Bytes = int64(cost.ReqBytes + cost.RespBytes)
	mc.Steps = cost.Steps
	mc.SitesVisited = append(mc.SitesVisited, entry.Site)
	tb, size, err := decodeTripletSizeResp(resp.Payload)
	if err != nil {
		return mc, err
	}
	t, err := eval.DecodeTripletInto(v.arena, tb)
	if err != nil {
		return mc, err
	}
	entry.Size = size
	// "The triplet is then compared with the one stored ... if they are
	// identical, incremental evaluation terminates without changing ans."
	// Both triplets live in the view arena, so this is an id compare.
	if old, ok := v.triplets[id]; ok && old.Equal(t) {
		mc.Elapsed = time.Since(start)
		return mc, nil
	}
	v.triplets[id] = t
	ans, work, err := eval.Solve(v.st, v.triplets, v.prog)
	if err != nil {
		return mc, err
	}
	v.ans = ans
	mc.SolveWork = work
	mc.Recomputed = true
	mc.Elapsed = time.Since(start)
	return mc, nil
}

// Split performs splitFragments at the node addressed by path inside
// fragment id; the subtree becomes a new fragment assigned to target
// (which may equal the current site). The answer is unaffected — only the
// source tree and the two triplets change, exactly as in Section 5.
// It returns the new fragment's ID.
func (v *View) Split(ctx context.Context, id xmltree.FragmentID, path []int, target frag.SiteID) (xmltree.FragmentID, MaintenanceCost, error) {
	start := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.compact()
	var mc MaintenanceCost
	entry, ok := v.st.Entry(id)
	if !ok {
		return 0, mc, fmt.Errorf("views: unknown fragment %d", id)
	}
	if target == "" {
		target = entry.Site
	}
	newID := v.nextID
	resp, cost, err := v.tr.Call(ctx, v.home, entry.Site, cluster.Request{
		Kind:    KindSplit,
		Payload: encodeSplitReq(v.prog.Encode(), id, path, newID, string(target)),
	})
	if err != nil {
		return 0, mc, err
	}
	v.nextID++
	mc.Bytes = int64(cost.ReqBytes + cost.RespBytes)
	mc.Steps = cost.Steps
	mc.SitesVisited = append(mc.SitesVisited, entry.Site)
	if target != entry.Site {
		mc.SitesVisited = append(mc.SitesVisited, target)
	}
	ownB, ownSize, newB, newSize, moved, err := decodeSplitResp(resp.Payload)
	if err != nil {
		return 0, mc, err
	}
	own, err := eval.DecodeTripletInto(v.arena, ownB)
	if err != nil {
		return 0, mc, err
	}
	nw, err := eval.DecodeTripletInto(v.arena, newB)
	if err != nil {
		return 0, mc, err
	}
	entry.Size = ownSize
	v.triplets[id] = own
	v.triplets[newID] = nw
	if err := v.st.SetEntry(frag.Entry{Frag: newID, Parent: id, Site: target, Size: newSize}); err != nil {
		return 0, mc, err
	}
	// Sub-fragments whose virtual nodes rode along in the split subtree
	// now nest under newID: re-parent them in the source tree, and — for
	// ones stored away from the split site, which already re-journaled its
	// own — durably at their sites, so the persisted Parent relation never
	// goes stale.
	for _, child := range moved {
		ce, ok := v.st.Entry(child)
		if !ok {
			return 0, mc, fmt.Errorf("views: split of %d moved unknown fragment %d", id, child)
		}
		childSite := ce.Site
		if err := v.st.SetEntry(frag.Entry{Frag: child, Parent: newID, Site: ce.Site, Size: ce.Size}); err != nil {
			return 0, mc, err
		}
		if childSite == entry.Site {
			continue
		}
		_, cost, err := v.tr.Call(ctx, v.home, childSite, cluster.Request{
			Kind:    KindSetParent,
			Payload: encodeSetParentReq(child, newID),
		})
		if err != nil {
			return 0, mc, fmt.Errorf("views: re-parenting fragment %d at %s: %w", child, childSite, err)
		}
		mc.Bytes += int64(cost.ReqBytes + cost.RespBytes)
		seen := false
		for _, s := range mc.SitesVisited {
			if s == childSite {
				seen = true
				break
			}
		}
		if !seen {
			mc.SitesVisited = append(mc.SitesVisited, childSite)
		}
	}
	mc.Elapsed = time.Since(start)
	return newID, mc, nil
}

// Merge performs mergeFragments: fragment id absorbs its sub-fragment
// child. The answer is unaffected; the source tree loses an entry and the
// merged fragment's triplet is replaced.
func (v *View) Merge(ctx context.Context, id, child xmltree.FragmentID) (MaintenanceCost, error) {
	start := time.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.compact()
	var mc MaintenanceCost
	entry, ok := v.st.Entry(id)
	if !ok {
		return mc, fmt.Errorf("views: unknown fragment %d", id)
	}
	centry, ok := v.st.Entry(child)
	if !ok {
		return mc, fmt.Errorf("views: unknown fragment %d", child)
	}
	if centry.Parent != id {
		return mc, fmt.Errorf("views: fragment %d is not a sub-fragment of %d", child, id)
	}
	if len(centry.Children) > 0 {
		return mc, fmt.Errorf("views: fragment %d still has sub-fragments; merge bottom-up", child)
	}
	childSite := ""
	if centry.Site != entry.Site {
		childSite = string(centry.Site)
	}
	resp, cost, err := v.tr.Call(ctx, v.home, entry.Site, cluster.Request{
		Kind:    KindMerge,
		Payload: encodeMergeReq(v.prog.Encode(), id, child, childSite),
	})
	if err != nil {
		return mc, err
	}
	mc.Bytes = int64(cost.ReqBytes + cost.RespBytes)
	mc.Steps = cost.Steps
	mc.SitesVisited = append(mc.SitesVisited, entry.Site)
	if childSite != "" {
		mc.SitesVisited = append(mc.SitesVisited, centry.Site)
	}
	tb, size, err := decodeTripletSizeResp(resp.Payload)
	if err != nil {
		return mc, err
	}
	t, err := eval.DecodeTripletInto(v.arena, tb)
	if err != nil {
		return mc, err
	}
	if err := v.st.RemoveEntry(child); err != nil {
		return mc, err
	}
	delete(v.triplets, child)
	entry2, _ := v.st.Entry(id)
	entry2.Size = size
	v.triplets[id] = t
	mc.Elapsed = time.Since(start)
	return mc, nil
}

// Refresh recomputes the view from scratch (every site visited); tests use
// it as the oracle the incremental path must match.
func (v *View) Refresh(ctx context.Context) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	arena := boolexpr.NewArena()
	triplets, rep, err := core.GatherTriplets(ctx, v.tr, v.home, v.st, v.prog, cluster.CostModel{}, arena)
	if err != nil {
		return err
	}
	v.arena = arena
	v.triplets = triplets
	v.ans = rep.Answer
	return nil
}
