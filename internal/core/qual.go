package core

import (
	"context"

	"repro/internal/boolexpr"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// GatherTriplets runs Procedure evalQual at every site of the source
// tree through the engine's scatter/gather layer — one visit per site,
// at most maxInflight calls in flight at once (0 = all together), first
// error cancels the round — and returns every fragment's triplet, decoded
// into the caller's arena a. The views layer materializes and refreshes
// through it; accounting flows through whatever metering transport tr
// wraps.
func GatherTriplets(ctx context.Context, tr cluster.Transport, from frag.SiteID,
	st *frag.SourceTree, prog *xpath.Program, maxInflight int, a *boolexpr.Arena) (map[xmltree.FragmentID]eval.Triplet, error) {
	sites := st.Sites()
	jobs := make([]scatterJob[[]fragTriplet], len(sites))
	for i, site := range sites {
		jobs[i] = scatterJob[[]fragTriplet]{
			to: site,
			req: cluster.Request{
				Kind:    KindEvalQual,
				Payload: encodeEvalQualReq(evalQualReq{prog: prog, ids: st.FragmentsAt(site)}),
			},
			dec: func(resp cluster.Response, _ cluster.CallCost) ([]fragTriplet, error) {
				return decodeEvalQualResp(resp.Payload)
			},
		}
	}
	perSite, _, err := scatter(ctx, tr, from, maxInflight, nil, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[xmltree.FragmentID]eval.Triplet, st.Count())
	if err := internTriplets(a, perSite, out); err != nil {
		return nil, err
	}
	return out, nil
}
