package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// BatchReport is the outcome of evaluating a batch of Boolean queries in
// one ParBoX round.
type BatchReport struct {
	// Answers are in the order the queries were given to CompileBatch.
	Answers    []bool
	SimTime    time.Duration
	Wall       time.Duration
	Bytes      int64
	Messages   int64
	TotalSteps int64
	SolveWork  int64
	Visits     map[frag.SiteID]int64
	// CacheHits/CacheMisses count fragments served from the sites'
	// versioned triplet caches versus evaluated, when caching is enabled.
	CacheHits, CacheMisses int64
	// Failovers counts scatter jobs this round re-placed onto another
	// replica after a site failure (zero without a serving tier).
	Failovers int64
	// Hedges/HedgeWins count speculative duplicate calls issued and won
	// (see Report; zero with hedging disabled).
	Hedges, HedgeWins int64
}

// ParBoXBatch answers a whole batch of Boolean queries with a single
// ParBoX round: one shared QList (compiled with xpath.CompileBatch), one
// visit per site, one equation solve. For a dissemination system with N
// overlapping subscriptions, this costs one traversal of each fragment
// instead of N — the per-node work is the shared program's size, which
// hash-consing keeps below the sum of the individual sizes.
func (e *Engine) ParBoXBatch(ctx context.Context, prog *xpath.Program, roots []int32) (BatchReport, error) {
	e, err := e.forRound()
	if err != nil {
		return BatchReport{}, err
	}
	start := time.Now()
	rec := newRecorder()
	sites := e.st.Sites()

	fp := e.fingerprint(prog)
	mk := func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[[]fragTriplet] {
		return e.evalQualJob(prog, fp, site, ids)
	}
	jobs := make([]scatterJob[[]fragTriplet], len(sites))
	for i, site := range sites {
		jobs[i] = mk(site, e.st.FragmentsAt(site))
	}
	perSite, simStage2, err := scatterHedged(ctx, e.tr, e.coord, e.maxInflight, rec, jobs, e.obs(), e.failoverRetry(rec, mk), e.hedgeHook(mk))
	if err != nil {
		return BatchReport{}, err
	}
	arena := eval.GetArena()
	defer eval.PutArena(arena)
	triplets := make(map[xmltree.FragmentID]eval.Triplet, e.st.Count())
	if err := internTriplets(arena, perSite, triplets); err != nil {
		return BatchReport{}, err
	}
	answers, work, err := eval.SolveMulti(e.st, triplets, prog, roots)
	if err != nil {
		return BatchReport{}, fmt.Errorf("core: batch solve: %w", err)
	}
	rep := BatchReport{
		Answers:   answers,
		SimTime:   simStage2 + e.cost.ComputeTime(work),
		Wall:      time.Since(start),
		SolveWork: work,
	}
	rec.steps += work
	a := rec.snapshot()
	rep.Bytes = a.bytes
	rep.Messages = a.messages
	rep.TotalSteps = a.steps
	rep.CacheHits = a.cacheHits
	rep.CacheMisses = a.cacheMisses
	rep.Failovers = a.failovers
	rep.Hedges = a.hedges
	rep.HedgeWins = a.hedgeWins
	rep.Visits = a.visits
	return rep, nil
}
