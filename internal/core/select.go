package core

import (
	"context"
	"encoding/binary"
	"fmt"

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

// KindCount is the aggregation variant of pass 2: propagate the selection
// automaton but return only the per-fragment match count. Section 8 of
// the paper singles out "numerical and aggregating computations over
// large data sets" as a natural beneficiary of partial evaluation — the
// response shrinks from a path list to a single integer, so the traffic
// bound drops back to O(|q|·card(F)) regardless of how many nodes match.
const KindCount = "parbox.count"

// SelectParBoX evaluates a data-selection path query (Section 8
// extension: data-selection XPath with partial evaluation):
//
//	pass 1 — an ordinary ParBoX round (each site visited once) solved in
//	         full, yielding the constant V/DV vectors of every fragment;
//	pass 2 — top-down NFA propagation fragment by fragment down the source
//	         tree; fragments no live state reaches are skipped entirely.
//
// Report.Paths holds the selected nodes, Report.Count their number. With
// the per-fragment pass-2 scheduling used here a site is visited at most
// 1 + card(F_Si) times; the paper's Section 8 remark sketches an "at
// most twice" schedule, which batches pass 2 per site (see DESIGN.md).
func (e *Engine) SelectParBoX(ctx context.Context, sp *xpath.SelectProgram) (Report, error) {
	return e.twoPass(ctx, sp, KindSelect)
}

// CountParBoX counts the nodes a path query selects, without materializing
// their identities anywhere: SelectParBoX whose pass 2 returns one integer
// per fragment. Report.Count is the total, Report.PerSite its breakdown.
func (e *Engine) CountParBoX(ctx context.Context, sp *xpath.SelectProgram) (Report, error) {
	return e.twoPass(ctx, sp, KindCount)
}

// fragSelection is one fragment's pass-2 outcome at the coordinator: the
// selected paths (KindSelect) or only their number (KindCount), and the
// arrivals forwarded to its sub-fragments.
type fragSelection struct {
	paths   [][]int
	count   int64
	forward map[xmltree.FragmentID]eval.Arrival
}

func (e *Engine) twoPass(ctx context.Context, sp *xpath.SelectProgram, kind string) (Report, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) {
		r := e.newRound()
		defer r.release()
		if err := r.gather(ctx, sp.Bool, 0, e.st.Fragments()); err != nil {
			return Report{}, err
		}
		vecs, work, err := eval.SolveAll(e.st, r.triplets, sp.Bool)
		if err != nil {
			return Report{}, err
		}
		r.solved(work)

		dec := func(resp cluster.Response, _ cluster.CallCost) (fragSelection, error) {
			if kind == KindCount {
				count, fwd, err := decodeCountResp(resp.Payload)
				return fragSelection{count: count, forward: fwd}, err
			}
			paths, fwd, err := decodeSelectResp(resp.Payload)
			return fragSelection{paths: paths, count: int64(len(paths)), forward: fwd}, err
		}
		var paths map[xmltree.FragmentID][][]int
		if kind == KindSelect {
			paths = make(map[xmltree.FragmentID][][]int)
		}
		perSite := make(map[frag.SiteID]int64)
		var total int64
		// Pass 2: walk the source tree top-down, level by level; fragments at
		// one level run in parallel, levels are sequential (states flow
		// downward). The jobs read per-site state of this very round, so they
		// take no failover hook; a failure here is recovered by round retry.
		spBytes := encodeSelectProgram(sp)
		pending := map[xmltree.FragmentID]eval.Arrival{e.st.Root(): eval.StartArrival()}
		for len(pending) > 0 {
			ids := sortedFragmentIDs(pending)
			jobs := make([]scatterJob[fragSelection], len(ids))
			for i, id := range ids {
				entry, ok := e.st.Entry(id)
				if !ok {
					return Report{}, fmt.Errorf("core: fragment %d not in source tree", id)
				}
				// Ship the resolved vectors of this fragment's children only.
				childVecs := make(map[xmltree.FragmentID]eval.BoolVecs, len(entry.Children))
				for _, c := range entry.Children {
					childVecs[c] = vecs[c]
				}
				jobs[i] = scatterJob[fragSelection]{
					to:  entry.Site,
					req: cluster.Request{Kind: kind, Payload: encodeSelectReq(spBytes, id, pending[id], childVecs)},
					dec: dec,
				}
			}
			level, simLevel, err := scatter(ctx, e.tr, e.coord, e.maxInflight, r.rec, jobs, e.obs())
			if err != nil {
				return Report{}, err
			}
			r.sim += simLevel
			next := make(map[xmltree.FragmentID]eval.Arrival)
			for i, res := range level {
				if len(res.paths) > 0 {
					paths[ids[i]] = res.paths
				}
				total += res.count
				perSite[jobs[i].to] += res.count
				for c, arr := range res.forward {
					prev := next[c]
					prev.States |= arr.States
					prev.Sticky |= arr.Sticky
					next[c] = prev
				}
			}
			pending = next
		}
		rep := r.report(AlgoParBoX)
		rep.Paths, rep.Count, rep.PerSite = paths, total, perSite
		return rep, nil
	})
}

// handlePass2 is the site side of pass 2, behind both KindSelect and
// KindCount: propagate the arrival through one fragment. What leaves the
// site — the selected paths or just their number — is encode's choice.
func handlePass2(encode func(eval.SelectResult) []byte) cluster.Handler {
	return func(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
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
		return cluster.Response{Payload: encode(res), Steps: res.Steps}, nil
	}
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

// countResp is the count followed by a selectResp that carries no paths.
func encodeCountResp(count int64, forward map[xmltree.FragmentID]eval.Arrival) []byte {
	dst := binary.AppendUvarint(nil, uint64(count))
	dst = binary.AppendUvarint(dst, 0)
	return appendForward(dst, forward)
}

func decodeCountResp(buf []byte) (int64, map[xmltree.FragmentID]eval.Arrival, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	count := r.Uvarint()
	if np := r.Uvarint(); np != 0 {
		r.Fail("count response carries %d paths", np)
	}
	forward := forwardMap(&r)
	return int64(count), forward, r.Done()
}
