package views

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// RegisterHandlers installs the view-maintenance handlers on a site. tr is
// the transport the site uses to ship subtrees during cross-site
// splitFragments/mergeFragments.
func RegisterHandlers(site *cluster.Site, tr cluster.Transport) {
	site.Handle(KindApplyUpdate, handleApplyUpdate)
	site.Handle(KindSplit, handleSplit(tr))
	site.Handle(KindAdopt, handleAdopt)
	site.Handle(KindMerge, handleMerge(tr))
	site.Handle(KindYield, handleYield)
	site.Handle(KindSetParent, handleSetParent)
	site.Handle(KindRegisterProg, handleRegisterProg)
}

func decodeProg(buf []byte) (*xpath.Program, error) {
	prog, err := xpath.DecodeProgram(buf)
	if err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	return prog, nil
}

// handleApplyUpdate applies content updates to one fragment and brings
// its triplets current — the paper's localized recomputation, sharpened
// to the touched spines: a retained eval.Plane is patched in O(depth +
// changed) per maintained program, the triplet cache is patched in place
// at the post-update version (no invalidation miss on the next visit),
// and standing programs whose root formulas flipped publish a Delta.
//
// A batch commits whole or not at all: if an op fails, or the requesting
// program cannot be evaluated over the result, the ops already applied
// are undone in reverse, and the error leaves the fragment at its old
// version and content, its cached triplets valid and nothing journaled.
// A committed batch is journaled as its op list (cluster.Site.
// CommitUpdate) before any Delta is published, so a subscriber never
// hears of an update a crash could still lose; the maintained programs'
// new triplets follow in one more append.
func handleApplyUpdate(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	progBytes, id, ops, err := decodeApplyUpdateReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	prog, err := decodeProg(progBytes)
	if err != nil {
		return cluster.Response{}, err
	}
	fr, ok := site.Fragment(id)
	if !ok {
		return cluster.Response{}, fmt.Errorf("views: site %s does not store fragment %d", site.ID(), id)
	}
	fm := maintOf(site).fragment(id)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	// Readers evaluate the tree without fm.mu; the edit bracket, closed
	// by the undo or the commit, keeps them from caching a half-applied
	// tree at a version an abort keeps.
	site.BeginEdit(id)
	applied := make([]xmltree.Touched, 0, len(ops))
	// abort undoes the applied ops, newest first. The retained planes
	// were patched (or built) against the abandoned state: drop them.
	abort := func(err error) (cluster.Response, error) {
		for i := len(applied) - 1; i >= 0; i-- {
			applied[i].Undo()
		}
		site.EndEdit(id)
		fm.reset()
		return cluster.Response{}, err
	}
	var fresh, dirty, removed []*xmltree.Node
	for i, op := range ops {
		tch, err := op.ApplyTracked(fr.Root)
		if err != nil {
			return abort(fmt.Errorf("views: op %d: %w", i, err))
		}
		applied = append(applied, tch)
		if tch.Fresh != nil {
			fresh = append(fresh, tch.Fresh)
		}
		if tch.Dirty != nil {
			dirty = append(dirty, tch.Dirty)
		}
		if tch.Removed != nil {
			removed = append(removed, tch.Removed)
		}
	}

	// Maintain the requesting program (its triplet is the response) and
	// every other maintained program — standing subscriptions included.
	reqFP := prog.Fingerprint()
	pm := fm.prog(prog, false)
	enc, delta, changed, steps, err := pm.recompute(site, fr, fresh, dirty, removed)
	if err != nil {
		return abort(err)
	}
	// Commit: advance the version and journal the ops. Stale cached
	// triplets are invalidated by the version key; the patched entries
	// stored below make the new version hit at once.
	version := site.CommitUpdate(fr, ops)
	site.EndEdit(id)
	pm.patchAndPush(site, id, version, enc, delta, changed)
	trips := make([]frag.Triplet, 1, 1+len(fm.progs))
	trips[0] = frag.Triplet{FP: reqFP, Enc: enc}
	total := steps
	for fp, other := range fm.progs {
		if fp == reqFP {
			continue
		}
		oenc, odelta, ochanged, s, err := other.recompute(site, fr, fresh, dirty, removed)
		total += s
		if err != nil {
			// The shared tree is fine (the requesting program evaluated
			// it); only this program's maintenance failed. Drop it.
			delete(fm.progs, fp)
			continue
		}
		other.patchAndPush(site, id, version, oenc, odelta, ochanged)
		trips = append(trips, frag.Triplet{FP: fp, Enc: oenc})
	}
	site.PersistTriplets(id, version, trips)
	return cluster.Response{
		Payload: encodeTripletSizeResp(enc, fr.Size()),
		Steps:   total,
	}, nil
}

// handleSplit is splitFragments(v) at the owning site: the subtree at the
// path becomes fragment newID (shipped to the target site if it differs),
// and both affected triplets are recomputed and returned.
func handleSplit(tr cluster.Transport) cluster.Handler {
	return func(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
		progBytes, id, path, newID, target, err := decodeSplitReq(req.Payload)
		if err != nil {
			return cluster.Response{}, err
		}
		prog, err := decodeProg(progBytes)
		if err != nil {
			return cluster.Response{}, err
		}
		fr, ok := site.Fragment(id)
		if !ok {
			return cluster.Response{}, fmt.Errorf("views: site %s does not store fragment %d", site.ID(), id)
		}
		node, err := NodeAt(fr.Root, path)
		if err != nil {
			return cluster.Response{}, err
		}
		if node.Parent == nil {
			return cluster.Response{}, fmt.Errorf("%w: cannot split at the fragment root", ErrBadUpdate)
		}
		if node.Virtual {
			return cluster.Response{}, fmt.Errorf("%w: cannot split at a virtual node", ErrBadUpdate)
		}
		// The new fragment is installed (and journaled) BEFORE the owning
		// fragment's subtree is replaced by the virtual node: a crash
		// between the two appends then leaves at worst a duplicate — the
		// subtree both inline in the stored parent and as an unreferenced
		// new fragment, which recovery drops — never a stored parent whose
		// virtual node references content no site holds. Encoding the
		// subtree does not look at parent pointers, so journaling it while
		// still attached writes exactly the post-split content.
		newFrag := &frag.Fragment{ID: newID, Parent: id, Root: node}

		var newTripletBytes []byte
		var newSize int
		var steps int64
		if target == "" || frag.SiteID(target) == site.ID() {
			site.AddFragment(newFrag)
			t, s, err := eval.BottomUp(newFrag.Root, prog)
			if err != nil {
				return cluster.Response{}, err
			}
			steps += s
			newTripletBytes = t.Encode()
			newSize = newFrag.Size()
		} else {
			// Ship the subtree to the adopting site, which computes and
			// returns the new fragment's triplet.
			resp, _, err := tr.Call(ctx, site.ID(), frag.SiteID(target), cluster.Request{
				Kind:    KindAdopt,
				Payload: encodeAdoptReq(progBytes, newID, id, xmltree.Encode(node)),
			})
			if err != nil {
				return cluster.Response{}, fmt.Errorf("views: adoption by %s failed: %w", target, err)
			}
			newTripletBytes, newSize, err = decodeTripletSizeResp(resp.Payload)
			if err != nil {
				return cluster.Response{}, err
			}
		}

		// Sub-fragments referenced from inside the moving subtree now nest
		// under newID; collect them while the subtree is still attached.
		var moved []xmltree.FragmentID
		for _, v := range node.VirtualNodes() {
			moved = append(moved, v.Frag)
		}

		if !node.Parent.ReplaceChild(node, xmltree.NewVirtual(newID)) {
			return cluster.Response{}, fmt.Errorf("views: corrupt fragment %d", id)
		}
		// The split mutated the owning fragment in place (subtree replaced
		// by a virtual node); node-keyed maintenance planes are stale.
		site.BumpFragment(fr)
		maintOf(site).invalidate(id)

		// Re-journal the moved sub-fragments stored at this site under
		// their new parent, so the persisted Parent relation stays exact.
		// Ones stored elsewhere are fixed by the view through
		// KindSetParent; a crash before either lands is repaired (with a
		// warning) by Restore's structural verification. Content is
		// untouched, so versions — and cached triplets — stay valid.
		for _, sub := range moved {
			site.SetFragmentParent(sub, newID)
		}

		own, s, err := eval.BottomUp(fr.Root, prog)
		if err != nil {
			return cluster.Response{}, err
		}
		steps += s
		return cluster.Response{
			Payload: encodeSplitResp(own.Encode(), fr.Size(), newTripletBytes, newSize, moved),
			Steps:   steps,
		}, nil
	}
}

// handleSetParent re-journals a stored fragment under a new parent after
// a split moved its referencing virtual node into another fragment.
func handleSetParent(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	id, parent, err := decodeSetParentReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	if !site.SetFragmentParent(id, parent) {
		return cluster.Response{}, fmt.Errorf("views: site %s does not store fragment %d", site.ID(), id)
	}
	return cluster.Response{}, nil
}

// handleAdopt installs a shipped fragment and computes its triplet.
func handleAdopt(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	progBytes, id, parent, subtree, err := decodeAdoptReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	prog, err := decodeProg(progBytes)
	if err != nil {
		return cluster.Response{}, err
	}
	root, err := xmltree.Decode(subtree)
	if err != nil {
		return cluster.Response{}, err
	}
	fr := &frag.Fragment{ID: id, Parent: parent, Root: root}
	site.AddFragment(fr)
	// A re-adopted fragment ID must not inherit planes keyed to the old
	// incarnation's nodes.
	maintOf(site).invalidate(id)
	t, steps, err := eval.BottomUp(root, prog)
	if err != nil {
		return cluster.Response{}, err
	}
	return cluster.Response{
		Payload: encodeTripletSizeResp(t.Encode(), fr.Size()),
		Steps:   steps,
	}, nil
}

// handleMerge is mergeFragments(v): the fragment absorbs sub-fragment
// child, pulling its subtree from childSite when remote, and returns the
// recomputed triplet of the merged fragment.
func handleMerge(tr cluster.Transport) cluster.Handler {
	return func(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
		progBytes, id, childID, childSite, err := decodeMergeReq(req.Payload)
		if err != nil {
			return cluster.Response{}, err
		}
		prog, err := decodeProg(progBytes)
		if err != nil {
			return cluster.Response{}, err
		}
		fr, ok := site.Fragment(id)
		if !ok {
			return cluster.Response{}, fmt.Errorf("views: site %s does not store fragment %d", site.ID(), id)
		}
		// Locate the virtual node for the child.
		var vnode *xmltree.Node
		for _, v := range fr.Root.VirtualNodes() {
			if v.Frag == childID {
				vnode = v
				break
			}
		}
		if vnode == nil {
			return cluster.Response{}, fmt.Errorf("views: fragment %d has no virtual node for %d", id, childID)
		}
		// Obtain the child subtree. A locally stored child is read but not
		// yet removed: the merged-into fragment's new content must be
		// journaled (BumpFragment below) BEFORE the child's deletion, so a
		// crash between the two appends leaves at worst a duplicate — the
		// absorbed subtree plus a no-longer-referenced child fragment,
		// which recovery drops — never a deleted child that the stored
		// parent still references.
		var childRoot *xmltree.Node
		removeLocal := false
		if childSite == "" || frag.SiteID(childSite) == site.ID() {
			cfr, ok := site.Fragment(childID)
			if !ok {
				return cluster.Response{}, fmt.Errorf("views: site %s does not store fragment %d", site.ID(), childID)
			}
			childRoot = cfr.Root
			removeLocal = true
		} else {
			resp, _, err := tr.Call(ctx, site.ID(), frag.SiteID(childSite), cluster.Request{
				Kind:    KindYield,
				Payload: encodeFragIDReq(childID),
			})
			if err != nil {
				return cluster.Response{}, fmt.Errorf("views: yield from %s failed: %w", childSite, err)
			}
			if childRoot, err = xmltree.Decode(resp.Payload); err != nil {
				return cluster.Response{}, err
			}
		}
		if !vnode.Parent.ReplaceChild(vnode, childRoot) {
			return cluster.Response{}, fmt.Errorf("views: corrupt fragment %d", id)
		}
		// The merged-into fragment absorbed a subtree; node-keyed
		// maintenance planes are stale.
		site.BumpFragment(fr)
		m := maintOf(site)
		m.invalidate(id)
		if removeLocal {
			site.RemoveFragment(childID)
			m.drop(childID)
		}
		t, steps, err := eval.BottomUp(fr.Root, prog)
		if err != nil {
			return cluster.Response{}, err
		}
		return cluster.Response{
			Payload: encodeTripletSizeResp(t.Encode(), fr.Size()),
			Steps:   steps,
		}, nil
	}
}

// handleYield removes a fragment from the site and returns its encoded
// subtree.
func handleYield(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	id, err := decodeFragIDReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	fr, ok := site.Fragment(id)
	if !ok {
		return cluster.Response{}, fmt.Errorf("views: site %s does not store fragment %d", site.ID(), id)
	}
	site.RemoveFragment(id)
	maintOf(site).drop(id)
	return cluster.Response{Payload: xmltree.Encode(fr.Root)}, nil
}
