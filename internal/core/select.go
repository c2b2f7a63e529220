package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// KindSelectTransfer is visit 2 of SelectParBoX and CountParBoX: one call
// per site covering all its fragments. The site evaluates the guards on the
// resolved pass-1 vectors and propagates the selection automaton with the
// fragments' arrivals still unknown, returning per fragment the arrival
// transfer to each sub-fragment and the candidates tagged with the arrival
// bits that select them — their paths for a selection, only their number
// per tag for a count. Section 8 of the paper singles out "numerical and
// aggregating computations over large data sets" as a natural beneficiary
// of partial evaluation: a count's response is a few integers per
// fragment however many nodes match.
const KindSelectTransfer = "parbox.selectTransfer"

// SelectParBoX evaluates a data-selection path query (Section 8
// extension: data-selection XPath with partial evaluation) in two visits
// per site, as the paper's Section 8 remark sketches:
//
//	visit 1 — an ordinary (fingerprinted, cacheable) ParBoX round over
//	          the guard program, solved in full at the coordinator, which
//	          yields the constant V/DV vectors of every fragment;
//	visit 2 — one parallel scatter, one call per site whatever the depth
//	          of the source tree, returning each fragment's selection as a
//	          function of its arrival (KindSelectTransfer); the coordinator
//	          composes the transfers down the source tree from the start
//	          state and keeps the candidates their fragment's arrival
//	          meets.
//
// Every site holding a fragment gets visit 2, so a site is visited at most
// twice; a fragment no live state reaches contributes no paths (see
// DESIGN.md, "Selection in two visits"). Report.Paths holds the selected
// nodes, Report.Count their number.
func (e *Engine) SelectParBoX(ctx context.Context, sp *xpath.SelectProgram) (Report, error) {
	return e.twoVisits(ctx, sp, true)
}

// CountParBoX counts the nodes a path query selects, without materializing
// their identities anywhere: SelectParBoX whose visit 2 returns a count
// per tag instead of paths. Report.Count is the total, Report.PerSite its
// breakdown.
func (e *Engine) CountParBoX(ctx context.Context, sp *xpath.SelectProgram) (Report, error) {
	return e.twoVisits(ctx, sp, false)
}

// siteTransfers is one site's visit-2 answer at the coordinator.
type siteTransfers struct {
	site  frag.SiteID
	frags []fragTransfer
}

// fragTransfer is one fragment's visit-2 outcome on the wire: Transfer
// without its step count (the response's Steps carries the site's total).
type fragTransfer struct {
	id xmltree.FragmentID
	eval.Transfer
}

func (e *Engine) twoVisits(ctx context.Context, sp *xpath.SelectProgram, paths bool) (Report, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) {
		r := e.newRound()
		defer r.release()
		if err := r.gather(ctx, sp.Bool, e.fingerprint(sp.Bool), e.st.Fragments()); err != nil {
			return Report{}, err
		}
		vecs, work, err := eval.SolveAll(e.st, r.triplets, sp.Bool)
		if err != nil {
			return Report{}, err
		}
		r.solved(work)

		// Visit 2 is a pure function of the fragment list (the vectors are
		// fixed for this attempt), so its jobs fail over and hedge like
		// evalQual's.
		spBytes := encodeSelectProgram(sp)
		domain := eval.ArrivalDomain(sp)
		mk := func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[siteTransfers] {
			q := selectTransferReq{paths: paths, vecs: make(map[xmltree.FragmentID]eval.BoolVecs)}
			for _, id := range ids {
				d := domain
				if id == e.st.Root() {
					d = eval.StartArrival()
				}
				q.frags = append(q.frags, fragDomain{id: id, domain: d})
				if entry, ok := e.st.Entry(id); ok {
					for _, c := range entry.Children {
						q.vecs[c] = vecs[c]
					}
				}
			}
			return scatterJob[siteTransfers]{
				to:    site,
				frags: ids,
				req:   cluster.Request{Kind: KindSelectTransfer, Payload: encodeSelectTransferReq(spBytes, q)},
				dec: func(resp cluster.Response, _ cluster.CallCost) (siteTransfers, error) {
					fts, err := decodeSelectTransferResp(resp.Payload, paths)
					return siteTransfers{site: site, frags: fts}, err
				},
			}
		}
		placement := make(map[frag.SiteID][]xmltree.FragmentID)
		for _, site := range e.st.Sites() {
			placement[site] = e.st.FragmentsAt(site)
		}
		jobs := jobsBySite(placement, mk)
		answers, sim, err := scatter(ctx, e.fanout(r.rec), jobs, mk)
		if err != nil {
			return Report{}, err
		}
		r.sim += sim
		rep := r.report(AlgoParBoX)
		if err := e.compose(answers, paths, &rep); err != nil {
			return Report{}, err
		}
		return rep, nil
	})
}

// compose runs the transfers down the source tree from the start state:
// a fragment's arrival selects the candidates whose tags it meets and,
// through each sub-fragment's transfer, fixes that sub-fragment's arrival.
// The work is |FT|·|chain| words, done at the coordinator.
func (e *Engine) compose(answers []siteTransfers, paths bool, rep *Report) error {
	type placed struct {
		site frag.SiteID
		ft   *fragTransfer
	}
	byID := make(map[xmltree.FragmentID]placed, e.st.Count())
	for _, a := range answers {
		for i := range a.frags {
			byID[a.frags[i].id] = placed{a.site, &a.frags[i]}
		}
	}
	if paths {
		rep.Paths = make(map[xmltree.FragmentID][][]int)
	}
	rep.PerSite = make(map[frag.SiteID]int64)
	arrivals := map[xmltree.FragmentID]eval.Arrival{e.st.Root(): eval.StartArrival()}
	for _, id := range e.st.TopoOrder() {
		p, ok := byID[id]
		if !ok {
			return fmt.Errorf("core: no selection transfer for fragment %d", id)
		}
		in := arrivals[id]
		if in.IsZero() {
			continue // dead: no state reaches it, nothing it found counts
		}
		sel, n := p.ft.Select(in)
		if len(sel) > 0 {
			rep.Paths[id] = sel
		}
		rep.Count += n
		rep.PerSite[p.site] += n
		entry, _ := e.st.Entry(id)
		for _, c := range entry.Children {
			if tr, ok := p.ft.Forward[c]; ok {
				arrivals[c] = tr.Apply(in)
			}
		}
	}
	return nil
}

// handleSelectTransfer is the site side of visit 2: SelectTransfer over
// each requested fragment, in request order. It keeps nothing at the site.
func handleSelectTransfer(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	sp, q, err := decodeSelectTransferReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	_, span := obs.StartSpan(ctx, string(site.ID()), "selectTransfer")
	defer span.End()
	fts := make([]fragTransfer, len(q.frags))
	var steps int64
	for i, fd := range q.frags {
		err := site.ReadFragment(fd.id, func(fr *frag.Fragment, _ uint64) error {
			t, err := eval.SelectTransfer(fr.Root, sp, q.vecs, fd.domain, q.paths)
			if err != nil {
				return fmt.Errorf("core: fragment %d: %w", fd.id, err)
			}
			steps += t.Steps
			fts[i] = fragTransfer{id: fd.id, Transfer: t}
			return nil
		})
		if err != nil {
			return cluster.Response{}, err
		}
	}
	span.SetAttr("fragments", int64(len(fts)))
	span.SetAttr("steps", steps)
	return cluster.Response{Payload: encodeSelectTransferResp(fts, q.paths), Steps: steps}, nil
}

// --- codecs ------------------------------------------------------------

func encodeSelectProgram(sp *xpath.SelectProgram) []byte {
	dst := wire.AppendBytes(nil, sp.Bool.Encode())
	dst = binary.AppendUvarint(dst, uint64(len(sp.Chain)))
	for _, s := range sp.Chain {
		dst = append(dst, byte(s.Kind))
		dst = binary.AppendUvarint(dst, uint64(s.Test+1))
	}
	return dst
}

func decodeSelectProgram(buf []byte) (*xpath.SelectProgram, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	pb := r.Bytes()
	n := r.Count(2)
	if n == 0 || n > xpath.MaxSelectChain {
		r.Fail("chain length %d", n)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	prog, err := xpath.DecodeProgram(pb)
	if err != nil {
		return nil, err
	}
	sp := &xpath.SelectProgram{Bool: prog, Chain: make([]xpath.SelectStep, n)}
	for i := range sp.Chain {
		kind := xpath.SelectKind(r.Byte())
		if kind > xpath.SDescOrSelf {
			r.Fail("bad select kind %d", kind)
		}
		// Test+1 rides on the wire: 0 is "no guard", anything past the
		// program's last subquery names nothing.
		test := r.Uvarint()
		if test > uint64(len(prog.Subs)) {
			r.Fail("chain test %d out of range", test)
		}
		sp.Chain[i] = xpath.SelectStep{Kind: kind, Test: int32(test) - 1}
	}
	return sp, r.Done()
}

func appendBoolVec(dst []byte, v []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	var cur byte
	nbits := 0
	for _, b := range v {
		if b {
			cur |= 1 << nbits
		}
		nbits++
		if nbits == 8 {
			dst = append(dst, cur)
			cur, nbits = 0, 0
		}
	}
	if nbits > 0 {
		dst = append(dst, cur)
	}
	return dst
}

// boolVec reads a bit count and the bits, eight to a byte.
func boolVec(r *wire.Reader) []bool {
	n := r.Uvarint()
	if n > 8*uint64(r.Len()) {
		r.Fail("bool vector of %d bits overruns buffer", n)
		return nil
	}
	v := make([]bool, n)
	var cur byte
	for i := range v {
		if i%8 == 0 {
			cur = r.Byte()
		}
		v[i] = cur&(1<<(i%8)) != 0
	}
	return v
}

func appendArrival(dst []byte, arr eval.Arrival) []byte {
	dst = binary.AppendUvarint(dst, arr.States)
	return binary.AppendUvarint(dst, arr.Sticky)
}

func arrival(r *wire.Reader) eval.Arrival {
	states := r.Uvarint()
	return eval.Arrival{States: states, Sticky: r.Uvarint()}
}

// fragDomain names a fragment of a visit-2 request and the arrival bits
// its transfer is computed over.
type fragDomain struct {
	id     xmltree.FragmentID
	domain eval.Arrival
}

// selectTransferReq: the select program (encoded once per round and
// shared by every site's request), whether paths are wanted, the site's
// fragments with their domains, and the resolved vectors of their
// sub-fragments.
type selectTransferReq struct {
	paths bool
	frags []fragDomain
	vecs  map[xmltree.FragmentID]eval.BoolVecs
}

func encodeSelectTransferReq(spBytes []byte, q selectTransferReq) []byte {
	dst := wire.AppendBytes(nil, spBytes)
	var flag byte
	if q.paths {
		flag = 1
	}
	dst = append(dst, flag)
	dst = binary.AppendUvarint(dst, uint64(len(q.frags)))
	for _, f := range q.frags {
		dst = xmltree.AppendFragmentID(dst, f.id)
		dst = appendArrival(dst, f.domain)
	}
	dst = binary.AppendUvarint(dst, uint64(len(q.vecs)))
	// Deterministic order for reproducible byte counts.
	for _, c := range sortedFragmentIDs(q.vecs) {
		dst = xmltree.AppendFragmentID(dst, c)
		dst = appendBoolVec(dst, q.vecs[c].V)
		dst = appendBoolVec(dst, q.vecs[c].DV)
	}
	return dst
}

func decodeSelectTransferReq(buf []byte) (*xpath.SelectProgram, selectTransferReq, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	var q selectTransferReq
	spb := r.Bytes()
	switch r.Byte() {
	case 0:
	case 1:
		q.paths = true
	default:
		r.Fail("bad paths flag")
	}
	q.frags = make([]fragDomain, r.Count(3))
	for i := range q.frags {
		q.frags[i].id = xmltree.ReadFragmentID(&r)
		q.frags[i].domain = arrival(&r)
	}
	nc := r.Count(3)
	q.vecs = make(map[xmltree.FragmentID]eval.BoolVecs, nc)
	for i := 0; i < nc; i++ {
		c := xmltree.ReadFragmentID(&r)
		v := boolVec(&r)
		q.vecs[c] = eval.BoolVecs{V: v, DV: boolVec(&r)}
	}
	if err := r.Done(); err != nil {
		return nil, q, err
	}
	sp, err := decodeSelectProgram(spb)
	if err != nil {
		return nil, q, err
	}
	return sp, q, nil
}

// appendArrivalTransfer writes the chain length, then the tag of every
// States bit and of every Sticky bit of the sub-fragment's arrival.
func appendArrivalTransfer(dst []byte, t eval.ArrivalTransfer) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.States)))
	for _, tags := range [][]eval.Arrival{t.States, t.Sticky} {
		for _, tag := range tags {
			dst = appendArrival(dst, tag)
		}
	}
	return dst
}

func arrivalTransfer(r *wire.Reader) eval.ArrivalTransfer {
	n := r.Count(4)
	if n > xpath.MaxSelectChain {
		r.Fail("transfer over %d chain positions", n)
		n = 0
	}
	t := eval.ArrivalTransfer{States: make([]eval.Arrival, n), Sticky: make([]eval.Arrival, n)}
	for _, tags := range [][]eval.Arrival{t.States, t.Sticky} {
		for j := range tags {
			tags[j] = arrival(r)
		}
	}
	return t
}

// selectTransferResp: per fragment its ID, the arrival transfer to each
// sub-fragment the sweep reached, and its candidates one tag group at a
// time: the tag, the number of candidates carrying it and, for a selection
// (paths), that many paths. The request's paths flag tells both ends
// whether the paths are there.
func encodeSelectTransferResp(fts []fragTransfer, paths bool) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(fts)))
	for i := range fts {
		ft := &fts[i]
		dst = xmltree.AppendFragmentID(dst, ft.id)
		dst = binary.AppendUvarint(dst, uint64(len(ft.Forward)))
		for _, c := range sortedFragmentIDs(ft.Forward) {
			dst = xmltree.AppendFragmentID(dst, c)
			dst = appendArrivalTransfer(dst, ft.Forward[c])
		}
		dst = binary.AppendUvarint(dst, uint64(len(ft.Cands)))
		for _, g := range ft.Cands {
			dst = appendArrival(dst, g.Tag)
			dst = binary.AppendUvarint(dst, uint64(g.Count))
			if !paths {
				continue
			}
			for _, p := range g.Paths {
				dst = binary.AppendUvarint(dst, uint64(len(p)))
				for _, k := range p {
					dst = binary.AppendUvarint(dst, uint64(k))
				}
			}
		}
	}
	return dst
}

func decodeSelectTransferResp(buf []byte, paths bool) ([]fragTransfer, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	fts := make([]fragTransfer, r.Count(3))
	for i := range fts {
		ft := &fts[i]
		ft.id = xmltree.ReadFragmentID(&r)
		nf := r.Count(2)
		ft.Forward = make(map[xmltree.FragmentID]eval.ArrivalTransfer, nf)
		for j := 0; j < nf; j++ {
			c := xmltree.ReadFragmentID(&r)
			ft.Forward[c] = arrivalTransfer(&r)
		}
		ft.Cands = make([]eval.Candidates, r.Count(3))
		for j := range ft.Cands {
			g := &ft.Cands[j]
			g.Tag = arrival(&r)
			if !paths {
				g.Count = int64(r.Uvarint())
				continue
			}
			// The count is the number of paths that follow.
			g.Paths = make([][]int, r.Count(1))
			g.Count = int64(len(g.Paths))
			for k := range g.Paths {
				g.Paths[k] = make([]int, r.Count(1))
				for m := range g.Paths[k] {
					g.Paths[k][m] = int(r.Uvarint())
				}
			}
		}
		if r.Err() != nil {
			break
		}
	}
	return fts, r.Done()
}
