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

// KindCount is the aggregation variant of pass 2: propagate the selection
// automaton but return only the per-fragment match count. Section 8 of
// the paper singles out "numerical and aggregating computations over
// large data sets" as a natural beneficiary of partial evaluation — the
// response shrinks from a path list to a single integer, so the traffic
// bound drops back to O(|q|·card(F)) regardless of how many nodes match.
const KindCount = "parbox.count"

// CountReport is the outcome of a distributed COUNT query.
type CountReport struct {
	Count   int64
	PerSite map[frag.SiteID]int64
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

// CountParBoX counts the nodes a path query selects, without materializing
// their identities anywhere: pass 1 as in SelectParBoX, pass 2 returns one
// integer per fragment.
func (e *Engine) CountParBoX(ctx context.Context, sp *xpath.SelectProgram) (CountReport, error) {
	e, err := e.forRound()
	if err != nil {
		return CountReport{}, err
	}
	start := time.Now()
	rec := newRecorder()

	sites := e.st.Sites()
	mk := func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[[]fragTriplet] {
		return e.evalQualJob(sp.Bool, 0, site, ids)
	}
	jobs := make([]scatterJob[[]fragTriplet], len(sites))
	for i, site := range sites {
		jobs[i] = mk(site, e.st.FragmentsAt(site))
	}
	perSite, sim, err := scatterHedged(ctx, e.tr, e.coord, e.maxInflight, rec, jobs, e.obs(), e.failoverRetry(rec, mk), e.hedgeHook(mk))
	if err != nil {
		return CountReport{}, err
	}
	vecs, solveWork, err := e.solveAll(perSite, sp.Bool)
	if err != nil {
		return CountReport{}, err
	}
	rec.steps += solveWork
	sim += e.cost.ComputeTime(solveWork)

	rep := CountReport{PerSite: make(map[frag.SiteID]int64)}
	spBytes := encodeSelectProgram(sp)
	pending := map[xmltree.FragmentID]eval.Arrival{e.st.Root(): eval.StartArrival()}
	type countResult struct {
		count   int64
		forward map[xmltree.FragmentID]eval.Arrival
	}
	for len(pending) > 0 {
		ids := sortedFragmentIDs(pending)
		levelSites := make([]frag.SiteID, len(ids))
		jobs := make([]scatterJob[countResult], len(ids))
		for i, id := range ids {
			entry, ok := e.st.Entry(id)
			if !ok {
				return CountReport{}, fmt.Errorf("core: fragment %d not in source tree", id)
			}
			levelSites[i] = entry.Site
			childVecs := make(map[xmltree.FragmentID]eval.BoolVecs, len(entry.Children))
			for _, c := range entry.Children {
				childVecs[c] = vecs[c]
			}
			jobs[i] = scatterJob[countResult]{
				to: entry.Site,
				req: cluster.Request{
					Kind:    KindCount,
					Payload: encodeSelectReq(spBytes, id, pending[id], childVecs),
				},
				dec: func(resp cluster.Response, _ cluster.CallCost) (countResult, error) {
					count, fwd, err := decodeCountResp(resp.Payload)
					return countResult{count: count, forward: fwd}, err
				},
			}
		}
		level, simLevel, err := scatterWith(ctx, e.tr, e.coord, e.maxInflight, rec, jobs, e.obs(), nil)
		if err != nil {
			return CountReport{}, err
		}
		next := make(map[xmltree.FragmentID]eval.Arrival)
		for i, res := range level {
			rep.Count += res.count
			rep.PerSite[levelSites[i]] += res.count
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

// handleCount is the site side: SelectFragment, but only the count leaves
// the site.
func handleCount(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
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
	return cluster.Response{
		Payload: encodeCountResp(int64(len(res.Selected)), res.Forward),
		Steps:   res.Steps,
	}, nil
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
