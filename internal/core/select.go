package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/wire"
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

func encodeSelectReq(spBytes []byte, id xmltree.FragmentID, arr eval.Arrival,
	childVecs map[xmltree.FragmentID]eval.BoolVecs) []byte {
	dst := wire.AppendBytes(nil, spBytes)
	dst = xmltree.AppendFragmentID(dst, id)
	dst = appendArrival(dst, arr)
	dst = binary.AppendUvarint(dst, uint64(len(childVecs)))
	// Deterministic order for reproducible byte counts.
	for _, c := range sortedFragmentIDs(childVecs) {
		dst = xmltree.AppendFragmentID(dst, c)
		dst = appendBoolVec(dst, childVecs[c].V)
		dst = appendBoolVec(dst, childVecs[c].DV)
	}
	return dst
}

func decodeSelectReq(buf []byte) (*xpath.SelectProgram, xmltree.FragmentID, eval.Arrival, map[xmltree.FragmentID]eval.BoolVecs, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	spb := r.Bytes()
	id := xmltree.ReadFragmentID(&r)
	arr := arrival(&r)
	nc := r.Count(3)
	childVecs := make(map[xmltree.FragmentID]eval.BoolVecs, nc)
	for i := 0; i < nc; i++ {
		c := xmltree.ReadFragmentID(&r)
		v := boolVec(&r)
		childVecs[c] = eval.BoolVecs{V: v, DV: boolVec(&r)}
	}
	if err := r.Done(); err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	sp, err := decodeSelectProgram(spb)
	if err != nil {
		return nil, 0, eval.Arrival{}, nil, err
	}
	return sp, id, arr, childVecs, nil
}

func appendForward(dst []byte, forward map[xmltree.FragmentID]eval.Arrival) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(forward)))
	for _, c := range sortedFragmentIDs(forward) {
		dst = xmltree.AppendFragmentID(dst, c)
		dst = appendArrival(dst, forward[c])
	}
	return dst
}

func forwardMap(r *wire.Reader) map[xmltree.FragmentID]eval.Arrival {
	nf := r.Count(3)
	forward := make(map[xmltree.FragmentID]eval.Arrival, nf)
	for i := 0; i < nf; i++ {
		c := xmltree.ReadFragmentID(r)
		forward[c] = arrival(r)
	}
	return forward
}

func encodeSelectResp(paths [][]int, forward map[xmltree.FragmentID]eval.Arrival) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(paths)))
	for _, p := range paths {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		for _, i := range p {
			dst = binary.AppendUvarint(dst, uint64(i))
		}
	}
	return appendForward(dst, forward)
}

func decodeSelectResp(buf []byte) ([][]int, map[xmltree.FragmentID]eval.Arrival, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	paths := make([][]int, r.Count(1))
	for i := range paths {
		paths[i] = make([]int, r.Count(1))
		for j := range paths[i] {
			paths[i][j] = int(r.Uvarint())
		}
	}
	forward := forwardMap(&r)
	return paths, forward, r.Done()
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
