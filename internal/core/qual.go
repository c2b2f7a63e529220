package core

import (
	"context"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// round is one ParBoX round in flight (Fig. 3a): the triplets gathered so
// far, interned into one pooled arena so the mode's solve runs in place,
// and the accounting. ParBoX, ParBoXBatch, pass 1 of a selection or count
// and every level of LazyParBoX are the same round; they differ only in
// the eval solve they run over triplets.
type round struct {
	e         *Engine
	start     time.Time
	rec       *recorder
	arena     *boolexpr.Arena
	triplets  map[xmltree.FragmentID]eval.Triplet
	sim       time.Duration
	solveWork int64
}

func (e *Engine) newRound() round {
	return round{
		e: e, start: time.Now(), rec: newRecorder(), arena: eval.GetArena(),
		triplets: make(map[xmltree.FragmentID]eval.Triplet, e.st.Count()),
	}
}

// release hands the arena back; the triplets die with it.
func (r *round) release() { eval.PutArena(r.arena) }

// evalQualDec splits an evalQual response on the goroutine that received
// it; the formulas are decoded serially at intern time.
func evalQualDec(resp cluster.Response, _ cluster.CallCost) ([]fragTriplet, error) {
	return decodeEvalQualResp(resp.Payload)
}

// gather is stage 2: Procedure evalQual for the fragments ids, grouped
// by the site the source tree places them at — one visit per site, at
// most maxInflight calls in flight, the first error cancels the rest,
// and with a tier attached failed or slow jobs fail over or hedge onto
// other replicas. The returned triplets join r.triplets. fp is the
// program fingerprint for the sites' triplet caches (0 bypasses them).
func (r *round) gather(ctx context.Context, prog *xpath.Program, fp uint64, ids []xmltree.FragmentID) error {
	e := r.e
	mk := func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[[]fragTriplet] {
		return scatterJob[[]fragTriplet]{
			to:    site,
			frags: ids,
			req: cluster.Request{
				Kind:    KindEvalQual,
				Payload: encodeEvalQualReq(evalQualReq{prog: prog, ids: ids, fp: fp}),
			},
			dec: evalQualDec,
		}
	}
	bySite := make(map[frag.SiteID][]xmltree.FragmentID)
	for _, id := range ids {
		site, _ := e.st.Site(id)
		bySite[site] = append(bySite[site], id)
	}
	jobs := jobsBySite(bySite, mk)
	perSite, sim, err := scatterHedged(ctx, e.tr, e.coord, e.maxInflight, r.rec, jobs, e.obs(), tierRetry(e.tier, e.rr, mk), tierHedge(e.tier, mk))
	if err != nil {
		return err
	}
	r.sim += sim
	return internTriplets(r.arena, perSite, r.triplets)
}

// solved charges the coordinator's formula work of one solve over
// r.triplets to the round.
func (r *round) solved(work int64) {
	r.solveWork += work
	r.rec.steps += work
	r.sim += r.e.cost.ComputeTime(work)
}

// report closes the round's accounting; the caller adds its mode's result.
func (r *round) report(algo Algorithm) Report {
	rep := Report{Algorithm: algo, SimTime: r.sim, Wall: time.Since(r.start), SolveWork: r.solveWork}
	r.rec.fill(&rep)
	return rep
}

// GatherTriplets runs stage 2 alone (round.gather over every fragment of
// st, from site from, no serving tier) and returns the triplets, decoded
// into the caller's arena a. The views layer materializes and refreshes
// through it; accounting flows through whatever metering transport tr
// wraps.
func GatherTriplets(ctx context.Context, tr cluster.Transport, from frag.SiteID,
	st *frag.SourceTree, prog *xpath.Program, maxInflight int, a *boolexpr.Arena) (map[xmltree.FragmentID]eval.Triplet, error) {
	r := round{
		e:        &Engine{tr: tr, coord: from, st: st, maxInflight: maxInflight},
		arena:    a,
		triplets: make(map[xmltree.FragmentID]eval.Triplet, st.Count()),
	}
	if err := r.gather(ctx, prog, 0, st.Fragments()); err != nil {
		return nil, err
	}
	return r.triplets, nil
}
