package views

import (
	"bytes"
	"context"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// This file is the site side of incremental triplet maintenance: instead
// of invalidating a fragment's cached triplets on update and paying a
// full bottomUp on the next visit, the update handler recomputes only
// the touched-node-to-root spines (eval.Plane) and patches the triplet
// cache in place at the post-update version. Standing programs —
// registered through KindRegisterProg by subscriptions — are maintained
// on every update and, when the fragment's root formulas actually flip,
// a Delta is published through cluster.Site.PushDelta (fanned out to
// in-process observers and, via the TCP server's push frames, to
// subscribed connections).

// maintKey is the site-state key the maintenance state lives under.
const maintKey = "views.maint"

// maxMaintProgs bounds the maintained programs per fragment: each holds
// an O(|F|) word plane, so request-local programs are evicted FIFO past
// the bound. Standing (subscribed) programs are never evicted.
const maxMaintProgs = 16

type siteMaint struct {
	mu    sync.Mutex
	frags map[xmltree.FragmentID]*fragMaint
}

// fragMaint is one fragment's maintenance state, guarded by the
// fragment's write lock (cluster.Site.EditFragment).
type fragMaint struct {
	progs map[uint64]*progMaint
	order []uint64 // insertion FIFO for eviction
	// size counts the nodes under sized: once, then moved by each
	// committed update, so an update never walks its fragment.
	sized *xmltree.Node
	size  int
}

// progMaint is one maintained (fragment, program) pair: the spine plane
// (nil outside the single-word kernel's domain) and the last root state,
// both the words (for O(1) flip diffing) and the encoding (retained so a
// no-op update re-stores the identical bytes instead of re-encoding).
type progMaint struct {
	prog                   *xpath.Program
	standing               bool
	plane                  *eval.Plane
	haveWords              bool
	lastVW, lastCW, lastDW uint64
	lastEnc                []byte
}

func maintOf(site *cluster.Site) *siteMaint {
	return site.GetOrPut(maintKey, func() any {
		return &siteMaint{frags: make(map[xmltree.FragmentID]*fragMaint)}
	}).(*siteMaint)
}

// fragment returns (creating if needed) the maintenance state of one
// fragment. Callers hold the fragment's write lock.
func (m *siteMaint) fragment(id xmltree.FragmentID) *fragMaint {
	m.mu.Lock()
	defer m.mu.Unlock()
	fm, ok := m.frags[id]
	if !ok {
		fm = &fragMaint{progs: make(map[uint64]*progMaint)}
		m.frags[id] = fm
	}
	return fm
}

// invalidate drops all retained planes and baselines of one fragment
// after a structural change (split, merge) rebuilt its tree out
// from under the node-keyed planes. Standing registrations survive; the
// next update recomputes their baseline in full. The caller holds the
// fragment's write lock.
func (m *siteMaint) invalidate(id xmltree.FragmentID) {
	m.mu.Lock()
	fm, ok := m.frags[id]
	m.mu.Unlock()
	if ok {
		fm.reset()
		fm.sized = nil
	}
}

// drop forgets a fragment's maintenance state entirely (yield/remove).
func (m *siteMaint) drop(id xmltree.FragmentID) {
	m.mu.Lock()
	delete(m.frags, id)
	m.mu.Unlock()
}

func (fm *fragMaint) reset() {
	for _, pm := range fm.progs {
		pm.plane = nil
		pm.haveWords = false
		pm.lastEnc = nil
	}
}

// prog returns (creating if needed) the maintenance entry for p,
// evicting the oldest non-standing entry past the per-fragment bound.
// The caller holds the fragment's write lock.
func (fm *fragMaint) prog(p *xpath.Program, standing bool) *progMaint {
	fp := p.Fingerprint()
	pm, ok := fm.progs[fp]
	if !ok {
		for len(fm.progs) >= maxMaintProgs {
			if !fm.evictOne() {
				break
			}
		}
		pm = &progMaint{prog: p}
		fm.progs[fp] = pm
		fm.order = append(fm.order, fp)
	}
	if standing {
		pm.standing = true
	}
	return pm
}

// evictOne removes the oldest-registered non-standing entry, reporting
// whether one was found.
func (fm *fragMaint) evictOne() bool {
	for i, fp := range fm.order {
		pm, live := fm.progs[fp]
		if !live {
			continue
		}
		if pm.standing {
			continue
		}
		delete(fm.progs, fp)
		fm.order = append(fm.order[:i], fm.order[i+1:]...)
		return true
	}
	return false
}

// recompute brings pm current with the fragment's tree after a batch of
// applied ops (the touched nodes in Plane.Patch vocabulary; all nil for
// a from-scratch baseline). It returns the new root encoding, the root
// flip delta (meaningful only when changed and the plane path ran), and
// whether the root formulas changed at all. The caller holds the
// fragment's write lock.
func (pm *progMaint) recompute(site *cluster.Site, fr *frag.Fragment, fresh, dirty, removed []*xmltree.Node) (enc []byte, delta eval.TripletDelta, changed bool, steps int64, err error) {
	stats := site.Stats()
	oldEnc := pm.lastEnc
	oldVW, oldCW, oldDW, hadWords := pm.lastVW, pm.lastCW, pm.lastDW, pm.haveWords

	spined := false
	if pm.plane != nil && pm.plane.Root() == fr.Root {
		s, ok := pm.plane.Patch(fresh, dirty, removed)
		steps += s
		if ok {
			spined = true
		} else {
			pm.plane = nil
		}
	}
	if !spined {
		plane, s, ok := eval.BuildPlane(fr.Root, pm.prog)
		steps += s
		stats.FullRecomputes.Add(1)
		if ok {
			pm.plane = plane
		} else {
			// Outside the single-word kernel's domain (virtual nodes or a
			// wide program): the general evaluator, with byte-level diffing.
			pm.plane = nil
			t, s2, err := eval.BottomUp(fr.Root, pm.prog)
			steps += s2
			if err != nil {
				return nil, delta, false, steps, err
			}
			enc = t.Encode()
			eval.PutArena(t.A)
			pm.haveWords = false
			changed = oldEnc == nil || !bytes.Equal(oldEnc, enc)
			if !changed {
				stats.NoopUpdates.Add(1)
				enc = oldEnc
			}
			pm.lastEnc = enc
			return enc, delta, changed, steps, nil
		}
	} else {
		stats.SpineRecomputes.Add(1)
	}

	vw, cw, dw := pm.plane.RootWords()
	if hadWords {
		delta = eval.TripletDelta{V: oldVW ^ vw, CV: oldCW ^ cw, DV: oldDW ^ dw}
		changed = !delta.Zero()
	} else {
		changed = true
	}
	if !changed && oldEnc != nil {
		// Same root formulas: the update is a no-op for every cached
		// query of this program — reuse the identical encoding.
		stats.NoopUpdates.Add(1)
		enc = oldEnc
	} else {
		t := eval.ConstTriplet(len(pm.prog.Subs), vw, cw, dw)
		enc = t.Encode()
		eval.PutArena(t.A)
	}
	pm.lastVW, pm.lastCW, pm.lastDW, pm.haveWords = vw, cw, dw, true
	pm.lastEnc = enc
	return enc, delta, changed, steps, nil
}

// patch stores pm's new encoding in the triplet cache at the post-update
// version (the update handler journals the batch of them) and, for a
// standing program whose root actually changed, appends the Delta to
// publish to deltas. The caller holds the fragment's write lock and
// publishes the Deltas once it has released it.
func (pm *progMaint) patch(site *cluster.Site, id xmltree.FragmentID, version uint64, enc []byte, delta eval.TripletDelta, changed bool, deltas [][]byte) [][]byte {
	fp := pm.prog.Fingerprint()
	core.StoreTriplet(site, id, version, fp, enc)
	if !pm.standing || !changed {
		return deltas
	}
	return append(deltas, Delta{
		Frag:    id,
		Version: version,
		FP:      fp,
		FlipV:   delta.V,
		FlipCV:  delta.CV,
		FlipDV:  delta.DV,
		Triplet: enc,
	}.Encode())
}

// handleRegisterProg registers a standing program for a set of fragments
// and returns their baseline triplets. Registration is idempotent; a
// repeat call answers from the maintained state with zero evaluation.
func handleRegisterProg(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	progBytes, ids, err := decodeRegisterReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	prog, err := decodeProg(progBytes)
	if err != nil {
		return cluster.Response{}, err
	}
	m := maintOf(site)
	fp := prog.Fingerprint()
	items := make([]RegItem, 0, len(ids))
	var steps int64
	for _, id := range ids {
		err := site.EditFragment(id, func(fr *frag.Fragment, version uint64) error {
			pm := m.fragment(id).prog(prog, true)
			if pm.lastEnc == nil {
				enc, _, _, s, err := pm.recompute(site, fr, nil, nil, nil)
				steps += s
				if err != nil {
					return err
				}
				pm.lastEnc = enc
			}
			core.StoreTriplet(site, id, version, fp, pm.lastEnc)
			site.PersistTriplets(id, version, []frag.Triplet{{FP: fp, Enc: pm.lastEnc}})
			items = append(items, RegItem{Frag: id, Version: version, Triplet: pm.lastEnc})
			return nil
		})
		if err != nil {
			return cluster.Response{}, err
		}
	}
	return cluster.Response{Payload: encodeRegisterResp(items), Steps: steps}, nil
}

// RegisterProg registers prog as a standing program for fragments ids at
// the site reachable as to, returning each fragment's baseline triplet.
func RegisterProg(ctx context.Context, tr cluster.Transport, from, to frag.SiteID, prog *xpath.Program, ids []xmltree.FragmentID) ([]RegItem, error) {
	resp, _, err := tr.Call(ctx, from, to, cluster.Request{
		Kind:    KindRegisterProg,
		Payload: encodeRegisterReq(prog.Encode(), ids),
	})
	if err != nil {
		return nil, err
	}
	return decodeRegisterResp(resp.Payload)
}
