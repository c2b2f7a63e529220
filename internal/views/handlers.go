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
// The update runs under the fragment's write lock, from the first op
// until the last maintained program's cache entry is patched: no reader
// sees a half-applied batch, and one that queued behind the update hits
// the entries it patched. The Deltas are published after the lock is
// released: a subscriber that reads the fragment while it handles one
// must not wait on a writer that waits on it. A batch commits whole
// or not at all: if an op fails, or the requesting program cannot be
// evaluated over the result, the ops already applied are undone in
// reverse, and the error leaves the fragment at its old version and
// content, its cached triplets valid and nothing journaled. A committed
// batch is journaled as its op list (cluster.Site.CommitUpdate) before
// any Delta is published, so a subscriber never hears of an update a
// crash could still lose; the maintained programs' new triplets follow
// in one more append.
func handleApplyUpdate(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	progBytes, id, ops, err := decodeApplyUpdateReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	prog, err := decodeProg(progBytes)
	if err != nil {
		return cluster.Response{}, err
	}
	var resp cluster.Response
	var deltas [][]byte
	err = site.EditFragment(id, func(fr *frag.Fragment, _ uint64) error {
		fm := maintOf(site).fragment(id)
		if fm.sized != fr.Root {
			fm.sized, fm.size = fr.Root, fr.Size()
		}
		applied := make([]xmltree.Touched, 0, len(ops))
		// abort undoes the applied ops, newest first. The retained planes
		// were patched (or built) against the abandoned state: drop them.
		// The node count moves only at commit: it has nothing to undo.
		abort := func(err error) error {
			for i := len(applied) - 1; i >= 0; i-- {
				applied[i].Undo()
			}
			fm.reset()
			return err
		}
		var fresh, dirty, removed []*xmltree.Node
		size := fm.size
		for i, op := range ops {
			tch, err := op.ApplyTracked(fr.Root)
			if err != nil {
				return abort(fmt.Errorf("views: op %d: %w", i, err))
			}
			applied = append(applied, tch)
			if tch.Fresh != nil {
				fresh = append(fresh, tch.Fresh)
				size += tch.Fresh.Size()
			}
			if tch.Dirty != nil {
				dirty = append(dirty, tch.Dirty)
			}
			if tch.Removed != nil {
				removed = append(removed, tch.Removed)
				size -= tch.Removed.Size()
			}
		}

		// Maintain the requesting program (its triplet is the response)
		// and every other maintained program — standing subscriptions
		// included.
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
		fm.size = size
		deltas = pm.patch(site, id, version, enc, delta, changed, deltas)
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
				// The shared tree is fine (the requesting program
				// evaluated it); only this program's maintenance failed.
				// Drop it.
				delete(fm.progs, fp)
				continue
			}
			deltas = other.patch(site, id, version, oenc, odelta, ochanged, deltas)
			trips = append(trips, frag.Triplet{FP: fp, Enc: oenc})
		}
		site.PersistTriplets(id, version, trips)
		resp = cluster.Response{Payload: encodeTripletSizeResp(enc, size), Steps: total}
		return nil
	})
	for _, d := range deltas {
		site.PushDelta(d)
	}
	return resp, err
}

// handleSplit is splitFragments(v) at the owning site: the subtree at the
// path becomes fragment newID (shipped to the target site if it differs),
// and both affected triplets are recomputed and returned.
//
// No lock is held while the subtree is shipped: the cut, under the write
// lock, needs the version the read lock saw, and a split that does not
// happen takes the adopted copy back.
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
		remote := target != "" && frag.SiteID(target) != site.ID()
		var resp cluster.Response
		var newTripletBytes, sub []byte
		var newSize int
		var read uint64
		if err := site.ReadFragment(id, func(fr *frag.Fragment, version uint64) error {
			node, err := NodeAt(fr.Root, path)
			switch {
			case err != nil:
				return err
			case node.Parent == nil:
				return fmt.Errorf("%w: cannot split at the fragment root", ErrBadUpdate)
			case node.Virtual:
				return fmt.Errorf("%w: cannot split at a virtual node", ErrBadUpdate)
			case remote:
				sub = xmltree.Encode(node)
			}
			read = version
			return nil
		}); err != nil {
			return resp, err
		}
		if remote {
			// Ship the subtree to the adopting site, which computes and
			// returns the new fragment's triplet.
			aresp, _, err := tr.Call(ctx, site.ID(), frag.SiteID(target), cluster.Request{
				Kind:    KindAdopt,
				Payload: encodeAdoptReq(progBytes, newID, id, sub),
			})
			if err != nil {
				return resp, fmt.Errorf("views: adoption by %s failed: %w", target, err)
			}
			if newTripletBytes, newSize, err = decodeTripletSizeResp(aresp.Payload); err != nil {
				return resp, err
			}
		}
		cut := false
		err = site.EditFragment(id, func(fr *frag.Fragment, version uint64) error {
			if version != read {
				return fmt.Errorf("views: fragment %d changed during its split", id)
			}
			node, _ := NodeAt(fr.Root, path) // the node validated at this version
			var steps int64
			if !remote {
				t, s, err := eval.BottomUp(node, prog)
				if err != nil {
					return err
				}
				steps = s
				newTripletBytes, newSize = t.Encode(), node.Size()
			}
			// Sub-fragments referenced from inside the moving subtree now
			// nest under newID; collect them while the subtree is still
			// attached.
			var moved []xmltree.FragmentID
			for _, v := range node.VirtualNodes() {
				moved = append(moved, v.Frag)
			}
			node.Parent.ReplaceChild(node, xmltree.NewVirtual(newID))
			cut = true
			// The new fragment is installed (and journaled) BEFORE the
			// owning fragment's new content: a crash between the two
			// appends then leaves at worst a duplicate — the subtree both
			// inline in the stored parent and as an unreferenced new
			// fragment, which recovery drops — never a stored parent whose
			// virtual node references content no site holds.
			if !remote {
				site.AddFragment(&frag.Fragment{ID: newID, Parent: id, Root: node})
			}
			// The split mutated the owning fragment in place (subtree
			// replaced by a virtual node); node-keyed maintenance planes
			// are stale.
			site.BumpFragment(fr)
			maintOf(site).invalidate(id)
			// Re-journal the moved sub-fragments stored at this site under
			// their new parent, so the persisted Parent relation stays
			// exact. Ones stored elsewhere are fixed by the view through
			// KindSetParent; a crash before either lands is repaired (with
			// a warning) by Restore's structural verification. Content is
			// untouched, so versions — and cached triplets — stay valid.
			for _, sub := range moved {
				site.SetFragmentParent(sub, newID)
			}
			own, s, err := eval.BottomUp(fr.Root, prog)
			if err != nil {
				return err
			}
			resp = cluster.Response{
				Payload: encodeSplitResp(own.Encode(), fr.Size(), newTripletBytes, newSize, moved),
				Steps:   steps + s,
			}
			return nil
		})
		if err != nil && remote && !cut {
			tr.Call(ctx, site.ID(), frag.SiteID(target), cluster.Request{Kind: KindYield, Payload: encodeFragIDReq(newID)})
		}
		return resp, err
	}
}

// handleSetParent re-journals a stored fragment under a new parent after
// a split moved its referencing virtual node into another fragment.
func handleSetParent(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	id, parent, err := decodeSetParentReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	return cluster.Response{}, site.SetFragmentParent(id, parent)
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
	// The tree is evaluated while it is still private to this handler.
	t, steps, err := eval.BottomUp(root, prog)
	if err != nil {
		return cluster.Response{}, err
	}
	// A re-adopted fragment ID must not inherit planes keyed to the old
	// incarnation's nodes.
	maintOf(site).drop(id)
	site.AddFragment(&frag.Fragment{ID: id, Parent: parent, Root: root})
	return cluster.Response{
		Payload: encodeTripletSizeResp(t.Encode(), root.Size()),
		Steps:   steps,
	}, nil
}

// handleMerge is mergeFragments(v): the fragment absorbs sub-fragment
// child, pulling its subtree from childSite when remote, and returns the
// recomputed triplet of the merged fragment. The splice runs under the
// fragment's write lock, and a child stored at the same site is locked
// inside it; a remote child is pulled before either lock is taken.
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
		local := childSite == "" || frag.SiteID(childSite) == site.ID()
		var childRoot *xmltree.Node
		if !local {
			// Refuse before the child leaves its site.
			if err := site.ReadFragment(id, func(fr *frag.Fragment, _ uint64) error {
				_, err := childVirtual(fr, childID)
				return err
			}); err != nil {
				return cluster.Response{}, err
			}
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
		var resp cluster.Response
		// absorb splices the child into fr. A local child is removed only
		// after the merged-into fragment's new content is journaled
		// (BumpFragment), so a crash between the two appends leaves at
		// worst a duplicate — the absorbed subtree plus a no-longer-
		// referenced child fragment, which recovery drops — never a
		// deleted child that the stored parent still references.
		absorb := func(fr *frag.Fragment, vnode, childRoot *xmltree.Node) error {
			vnode.Parent.ReplaceChild(vnode, childRoot)
			// The merged-into fragment absorbed a subtree; node-keyed
			// maintenance planes are stale.
			site.BumpFragment(fr)
			m := maintOf(site)
			m.invalidate(id)
			if local {
				site.RemoveFragment(childID)
				m.drop(childID)
			}
			t, steps, err := eval.BottomUp(fr.Root, prog)
			if err != nil {
				return err
			}
			resp = cluster.Response{
				Payload: encodeTripletSizeResp(t.Encode(), fr.Size()),
				Steps:   steps,
			}
			return nil
		}
		err = site.EditFragment(id, func(fr *frag.Fragment, _ uint64) error {
			vnode, err := childVirtual(fr, childID)
			if err != nil {
				return err
			}
			if !local {
				return absorb(fr, vnode, childRoot)
			}
			return site.EditFragment(childID, func(cfr *frag.Fragment, _ uint64) error {
				return absorb(fr, vnode, cfr.Root)
			})
		})
		return resp, err
	}
}

// childVirtual is fr's virtual node for sub-fragment child.
func childVirtual(fr *frag.Fragment, child xmltree.FragmentID) (*xmltree.Node, error) {
	for _, v := range fr.Root.VirtualNodes() {
		if v.Frag == child {
			return v, nil
		}
	}
	return nil, fmt.Errorf("views: fragment %d has no virtual node for %d", fr.ID, child)
}

// handleYield removes a fragment from the site and returns its encoded
// subtree.
func handleYield(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	id, err := decodeFragIDReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	var resp cluster.Response
	err = site.EditFragment(id, func(fr *frag.Fragment, _ uint64) error {
		resp.Payload = xmltree.Encode(fr.Root)
		site.RemoveFragment(id)
		maintOf(site).drop(id)
		return nil
	})
	return resp, err
}
