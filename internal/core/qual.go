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
// by the site the source tree places them at — one visit per site, all
// in flight at once, the first error cancels the rest, and with a tier
// attached failed or slow jobs fail over or hedge onto other replicas.
// The returned triplets join r.triplets. fp is the program fingerprint
// for the sites' triplet caches (0 bypasses them).
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
	perSite, sim, err := scatter(ctx, e.fanout(r.rec), jobs, mk)
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

// GatherTriplets runs the ParBoX round of a materialized view: stage 2
// over every fragment of st (round.gather from site from, no serving
// tier, no triplet cache), decoded into the caller's arena a, then the
// equation solve at from. The Report carries the answer and the round's
// accounting, the solve's work included, by the same rules as a
// ModeBoolean ParBoX run; cost prices that solve.
func GatherTriplets(ctx context.Context, tr cluster.Transport, from frag.SiteID, st *frag.SourceTree,
	prog *xpath.Program, cost cluster.CostModel, a *boolexpr.Arena) (map[xmltree.FragmentID]eval.Triplet, Report, error) {
	r := round{
		e:        &Engine{tr: tr, coord: from, st: st, cost: cost},
		start:    time.Now(),
		rec:      newRecorder(),
		arena:    a,
		triplets: make(map[xmltree.FragmentID]eval.Triplet, st.Count()),
	}
	if err := r.gather(ctx, prog, 0, st.Fragments()); err != nil {
		return nil, Report{}, err
	}
	ans, work, err := eval.Solve(st, r.triplets, prog)
	if err != nil {
		return nil, Report{}, err
	}
	r.solved(work)
	rep := r.report(AlgoParBoX)
	rep.Answer = ans
	return r.triplets, rep, nil
}
