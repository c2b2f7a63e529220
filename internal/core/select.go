package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// KindSelect is the pass-2 message of SelectParBoX: propagate NFA states
// through one fragment and return the selected paths plus the arrivals for
// its sub-fragments.
const KindSelect = "parbox.select"

// SelectReport is the outcome of a distributed selection query (Section 8
// extension: data-selection XPath with partial evaluation).
type SelectReport struct {
	// Paths holds, per fragment, the selected nodes as child-index paths
	// from the fragment root.
	Paths map[xmltree.FragmentID][][]int
	// Count is the total number of selected nodes.
	Count int
	// Accounting, as in Report.
	SimTime    time.Duration
	Wall       time.Duration
	Bytes      int64
	Messages   int64
	TotalSteps int64
	Visits     map[frag.SiteID]int64
	// Failovers counts failed site calls re-placed onto surviving
	// replicas by the serving tier (always zero without one).
	Failovers int64
	// Hedges/HedgeWins count speculative duplicate calls issued and won
	// (see Report; zero with hedging disabled).
	Hedges, HedgeWins int64
}

// SelectParBoX evaluates a data-selection path query:
//
//	pass 1 — ordinary ParBoX stage 2 (each site visited once) plus a full
//	         solve, yielding the constant V/DV vectors of every fragment;
//	pass 2 — top-down NFA propagation fragment by fragment down the source
//	         tree; fragments no live state reaches are skipped entirely.
//
// With the per-fragment pass-2 scheduling used here a site is visited at
// most 1 + card(F_Si) times; the paper's Section 8 remark sketches an "at
// most twice" schedule, which batches pass 2 per site (see DESIGN.md).
func (e *Engine) SelectParBoX(ctx context.Context, sp *xpath.SelectProgram) (SelectReport, error) {
	e, err := e.forRound()
	if err != nil {
		return SelectReport{}, err
	}
	start := time.Now()
	rec := newRecorder()

	// Pass 1: collect triplets from every site, through the
	// scatter/gather layer.
	sites := e.st.Sites()
	mk := func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[[]fragTriplet] {
		return e.evalQualJob(sp.Bool, 0, site, ids)
	}
	jobs := make([]scatterJob[[]fragTriplet], len(sites))
	for i, site := range sites {
		jobs[i] = mk(site, e.st.FragmentsAt(site))
	}
	perSite, simPass1, err := scatterHedged(ctx, e.tr, e.coord, e.maxInflight, rec, jobs, e.obs(), e.failoverRetry(rec, mk), e.hedgeHook(mk))
	if err != nil {
		return SelectReport{}, err
	}
	vecs, solveWork, err := e.solveAll(perSite, sp.Bool)
	if err != nil {
		return SelectReport{}, err
	}
	rec.steps += solveWork
	sim := simPass1 + e.cost.ComputeTime(solveWork)

	// Pass 2: walk the source tree top-down, level by level; fragments at
	// one level run in parallel, levels are sequential (states flow
	// downward).
	rep := SelectReport{Paths: make(map[xmltree.FragmentID][][]int)}
	pending := map[xmltree.FragmentID]eval.Arrival{e.st.Root(): eval.StartArrival()}
	spBytes := encodeSelectProgram(sp)
	type selResult struct {
		paths   [][]int
		forward map[xmltree.FragmentID]eval.Arrival
	}
	for len(pending) > 0 {
		ids := sortedFragmentIDs(pending)
		jobs := make([]scatterJob[selResult], len(ids))
		for i, id := range ids {
			entry, ok := e.st.Entry(id)
			if !ok {
				return SelectReport{}, fmt.Errorf("core: fragment %d not in source tree", id)
			}
			// Ship the resolved vectors of this fragment's children only.
			childVecs := make(map[xmltree.FragmentID]eval.BoolVecs, len(entry.Children))
			for _, c := range entry.Children {
				childVecs[c] = vecs[c]
			}
			jobs[i] = scatterJob[selResult]{
				to: entry.Site,
				req: cluster.Request{
					Kind:    KindSelect,
					Payload: encodeSelectReq(spBytes, id, pending[id], childVecs),
				},
				dec: func(resp cluster.Response, _ cluster.CallCost) (selResult, error) {
					paths, fwd, err := decodeSelectResp(resp.Payload)
					return selResult{paths: paths, forward: fwd}, err
				},
			}
		}
		level, simLevel, err := scatterWith(ctx, e.tr, e.coord, e.maxInflight, rec, jobs, e.obs(), nil)
		if err != nil {
			return SelectReport{}, err
		}
		next := make(map[xmltree.FragmentID]eval.Arrival)
		for i, res := range level {
			if len(res.paths) > 0 {
				rep.Paths[ids[i]] = res.paths
				rep.Count += len(res.paths)
			}
			for c, arr := range res.forward {
				prev := next[c]
				prev.States |= arr.States
				prev.Sticky |= arr.Sticky
				next[c] = prev
			}
		}
		sim += simLevel
		pending = next
	}
	rep.SimTime = sim
	rep.Wall = time.Since(start)
	a := rec.snapshot()
	rep.Bytes = a.bytes
	rep.Messages = a.messages
	rep.TotalSteps = a.steps
	rep.Visits = a.visits
	rep.Failovers = a.failovers
	rep.Hedges = a.hedges
	rep.HedgeWins = a.hedgeWins
	return rep, nil
}

// handleSelect is the site side of pass 2.
func handleSelect(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	sp, id, arr, childVecs, err := decodeSelectReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	fr, ok := site.Fragment(id)
	if !ok {
		return cluster.Response{}, fmt.Errorf("core: site %s does not store fragment %d", site.ID(), id)
	}
	res, err := eval.SelectFragment(fr.Root, sp, childVecs, arr)
	if err != nil {
		return cluster.Response{}, err
	}
	return cluster.Response{Payload: encodeSelectResp(res.Selected, res.Forward), Steps: res.Steps}, nil
}

// --- codecs ------------------------------------------------------------

func encodeSelectProgram(sp *xpath.SelectProgram) []byte {
	dst := appendBytes(nil, sp.Bool.Encode())
	dst = binary.AppendUvarint(dst, uint64(len(sp.Chain)))
	for _, s := range sp.Chain {
		dst = append(dst, byte(s.Kind))
		dst = binary.AppendUvarint(dst, uint64(s.Test+1))
	}
	return dst
}

func decodeSelectProgram(r *reader) (*xpath.SelectProgram, error) {
	pb, err := r.bytes()
	if err != nil {
		return nil, err
	}
	prog, err := xpath.DecodeProgram(pb)
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > xpath.MaxSelectChain {
		return nil, fmt.Errorf("%w: chain length %d", ErrBadMessage, n)
	}
	sp := &xpath.SelectProgram{Bool: prog, Chain: make([]xpath.SelectStep, n)}
	for i := range sp.Chain {
		if r.pos >= len(r.buf) {
			return nil, fmt.Errorf("%w: truncated chain", ErrBadMessage)
		}
		kind := xpath.SelectKind(r.buf[r.pos])
		r.pos++
		if kind > xpath.SDescOrSelf {
			return nil, fmt.Errorf("%w: bad select kind %d", ErrBadMessage, kind)
		}
		testRaw, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		test := int32(testRaw) - 1
		if test >= int32(len(prog.Subs)) {
			return nil, fmt.Errorf("%w: chain test %d out of range", ErrBadMessage, test)
		}
		sp.Chain[i] = xpath.SelectStep{Kind: kind, Test: test}
	}
	return sp, nil
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

func (r *reader) boolVec() ([]bool, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nbytes := (int(n) + 7) / 8
	if n > uint64(8*(len(r.buf)-r.pos)) {
		return nil, fmt.Errorf("%w: bool vector overruns buffer", ErrBadMessage)
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = r.buf[r.pos+i/8]&(1<<(i%8)) != 0
	}
	r.pos += nbytes
	return v, nil
}

func encodeSelectReq(spBytes []byte, id xmltree.FragmentID, arr eval.Arrival,
	childVecs map[xmltree.FragmentID]eval.BoolVecs) []byte {
	dst := appendBytes(nil, spBytes)
	dst = binary.AppendUvarint(dst, uint64(uint32(id)))
	dst = binary.AppendUvarint(dst, arr.States)
	dst = binary.AppendUvarint(dst, arr.Sticky)
	dst = binary.AppendUvarint(dst, uint64(len(childVecs)))
	// Deterministic order for reproducible byte counts.
	ids := make([]xmltree.FragmentID, 0, len(childVecs))
	for c := range childVecs {
		ids = append(ids, c)
	}
	for i := 0; i < len(ids)-1; i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, c := range ids {
		dst = binary.AppendUvarint(dst, uint64(uint32(c)))
		dst = appendBoolVec(dst, childVecs[c].V)
		dst = appendBoolVec(dst, childVecs[c].DV)
	}
	return dst
}

func decodeSelectReq(buf []byte) (*xpath.SelectProgram, xmltree.FragmentID, eval.Arrival, map[xmltree.FragmentID]eval.BoolVecs, error) {
	r := &reader{buf: buf}
	spb, err := r.bytes()
	if err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	sp, err := decodeSelectProgram(&reader{buf: spb})
	if err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	idRaw, err := r.uvarint()
	if err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	states, err := r.uvarint()
	if err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	sticky, err := r.uvarint()
	if err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	nc, err := r.uvarint()
	if err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	if nc > uint64(len(buf)) {
		return nil, 0, eval.Arrival{}, nil, fmt.Errorf("%w: child count %d", ErrBadMessage, nc)
	}
	childVecs := make(map[xmltree.FragmentID]eval.BoolVecs, nc)
	for i := uint64(0); i < nc; i++ {
		cRaw, err := r.uvarint()
		if err != nil {
			return nil, 0, eval.Arrival{}, nil, err
		}
		v, err := r.boolVec()
		if err != nil {
			return nil, 0, eval.Arrival{}, nil, err
		}
		dv, err := r.boolVec()
		if err != nil {
			return nil, 0, eval.Arrival{}, nil, err
		}
		childVecs[xmltree.FragmentID(uint32(cRaw))] = eval.BoolVecs{V: v, DV: dv}
	}
	if err := r.done(); err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	return sp, xmltree.FragmentID(uint32(idRaw)), eval.Arrival{States: states, Sticky: sticky}, childVecs, nil
}

func encodeSelectResp(paths [][]int, forward map[xmltree.FragmentID]eval.Arrival) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(paths)))
	for _, p := range paths {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		for _, i := range p {
			dst = binary.AppendUvarint(dst, uint64(i))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(forward)))
	ids := make([]xmltree.FragmentID, 0, len(forward))
	for c := range forward {
		ids = append(ids, c)
	}
	for i := 0; i < len(ids)-1; i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, c := range ids {
		dst = binary.AppendUvarint(dst, uint64(uint32(c)))
		dst = binary.AppendUvarint(dst, forward[c].States)
		dst = binary.AppendUvarint(dst, forward[c].Sticky)
	}
	return dst
}

func decodeSelectResp(buf []byte) ([][]int, map[xmltree.FragmentID]eval.Arrival, error) {
	r := &reader{buf: buf}
	np, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if np > uint64(len(buf))+1 {
		return nil, nil, fmt.Errorf("%w: path count %d", ErrBadMessage, np)
	}
	paths := make([][]int, 0, np)
	for i := uint64(0); i < np; i++ {
		plen, err := r.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if plen > uint64(len(buf)-r.pos)+1 {
			return nil, nil, fmt.Errorf("%w: path length %d", ErrBadMessage, plen)
		}
		p := make([]int, plen)
		for j := range p {
			v, err := r.uvarint()
			if err != nil {
				return nil, nil, err
			}
			p[j] = int(v)
		}
		paths = append(paths, p)
	}
	nf, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if nf > uint64(len(buf))+1 {
		return nil, nil, fmt.Errorf("%w: forward count %d", ErrBadMessage, nf)
	}
	forward := make(map[xmltree.FragmentID]eval.Arrival, nf)
	for i := uint64(0); i < nf; i++ {
		cRaw, err := r.uvarint()
		if err != nil {
			return nil, nil, err
		}
		states, err := r.uvarint()
		if err != nil {
			return nil, nil, err
		}
		sticky, err := r.uvarint()
		if err != nil {
			return nil, nil, err
		}
		forward[xmltree.FragmentID(uint32(cRaw))] = eval.Arrival{States: states, Sticky: sticky}
	}
	return paths, forward, r.done()
}

// solveAll is pass 1's third phase, shared by Select and Count: intern the
// gathered triplets into one pooled arena and resolve every fragment's
// V/DV vectors there.
func (e *Engine) solveAll(perSite [][]fragTriplet, prog *xpath.Program) (map[xmltree.FragmentID]eval.BoolVecs, int64, error) {
	arena := eval.GetArena()
	defer eval.PutArena(arena)
	triplets := make(map[xmltree.FragmentID]eval.Triplet, e.st.Count())
	if err := internTriplets(arena, perSite, triplets); err != nil {
		return nil, 0, err
	}
	return eval.SolveAll(e.st, triplets, prog)
}
