package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// runState is the per-query state FullDistParBoX caches at a site between
// stage 2 (evalQualKeep) and stage 3 (resolve): the program, the site's
// copy of the source tree, and the local triplets — kept encoded; each
// resolve decodes its fragment's into an arena of its own.
type runState struct {
	prog     *xpath.Program
	st       *frag.SourceTree
	mu       sync.Mutex
	triplets map[xmltree.FragmentID][]byte
	// remaining counts the local fragments not yet resolved; the state
	// self-destructs at zero, since evalDistrST resolves every fragment
	// exactly once — no cleanup round trip is needed on the happy path.
	remaining int
}

func runStateKey(runKey string) string { return "parbox.run." + runKey }

// RegisterHandlers installs the ParBoX protocol handlers on a site. tr is
// the transport the site uses to reach its peers (needed by the recursive
// NaiveDistributed and FullDistParBoX handlers) and cost is the cost model
// the site uses to report modeled times for its own computation.
//
// The same registration serves the in-process cluster and a TCP site
// daemon.
func RegisterHandlers(site *cluster.Site, tr cluster.Transport, cost cluster.CostModel) {
	site.Handle(KindEvalQual, handleEvalQual(false))
	site.Handle(KindEvalQualKeep, handleEvalQual(true))
	site.Handle(KindResolve, handleResolve(tr, cost))
	site.Handle(KindCleanup, handleCleanup)
	site.Handle(KindFetchFragments, handleFetchFragments)
	site.Handle(KindEvalFragDist, handleEvalFragDist(tr, cost))
	site.Handle(KindSelect, handlePass2(func(res eval.SelectResult) []byte {
		return encodeSelectResp(res.Selected, res.Forward)
	}))
	site.Handle(KindCount, handlePass2(func(res eval.SelectResult) []byte {
		return encodeCountResp(int64(len(res.Selected)), res.Forward)
	}))
	site.SetAdmissionEstimator(admissionEstimate(site))
}

// admissionEstimate prices a request for the site's admission controller
// in fragment nodes: an evaluation or fetch touching big fragments
// weighs proportionally more against the cost watermark than one
// touching leaves. Unknown kinds (and undecodable payloads — they will
// fail in the handler anyway) weigh the minimum.
func admissionEstimate(site *cluster.Site) func(req cluster.Request) int64 {
	sizeOf := func(ids []xmltree.FragmentID) int64 {
		var total int64
		for _, id := range ids {
			if fr, ok := site.Fragment(id); ok {
				total += int64(fr.Size())
			}
		}
		return total
	}
	return func(req cluster.Request) int64 {
		switch req.Kind {
		case KindEvalQual, KindEvalQualKeep:
			if q, err := decodeEvalQualReq(req.Payload); err == nil {
				return sizeOf(q.ids)
			}
		case KindFetchFragments:
			if ids, err := decodeFetchReq(req.Payload); err == nil {
				return sizeOf(ids)
			}
		case KindSelect, KindCount:
			if _, id, _, _, err := decodeSelectReq(req.Payload); err == nil {
				return sizeOf([]xmltree.FragmentID{id})
			}
		}
		return 1
	}
}

// handleEvalQual is Procedure evalQual (Fig. 3b): run bottomUp over each
// requested locally stored fragment and return the triplets in request
// order. With keep=true the triplets are cached for a later resolve.
//
// A site's fragments are independent (each bottomUp pass owns its arena),
// so they are evaluated in parallel on a worker pool sized to the host —
// the within-site analogue of the paper's across-site stage-2 parallelism.
//
// When the request carries a program fingerprint (q.fp != 0; the serving
// paths send it, see Engine.EnableTripletCache), the site's versioned
// triplet cache is consulted first: fragments unchanged since the same
// program last visited answer from their memoized encoding with zero
// bottomUp steps, and only the remaining fragments are evaluated. The
// response reports hits and misses so coordinator- and cluster-level
// accounting can see the cache working.
func handleEvalQual(keep bool) cluster.Handler {
	return func(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
		q, err := decodeEvalQualReq(req.Payload)
		if err != nil {
			return cluster.Response{}, err
		}
		var state *runState
		if keep {
			if q.st == nil {
				return cluster.Response{}, fmt.Errorf("%w: evalQualKeep without source tree", ErrBadMessage)
			}
			state = &runState{prog: q.prog, st: q.st, triplets: make(map[xmltree.FragmentID][]byte)}
		}
		if q.fp != 0 && !keep {
			return evalQualCached(ctx, site, q)
		}
		bctx, bsp := obs.StartSpan(ctx, string(site.ID()), "bottomUp")
		fts, steps, err := evalFragments(bctx, site, q.prog, q.ids)
		if bsp != nil {
			bsp.SetAttr("fragments", int64(len(q.ids)))
			bsp.SetAttr("steps", steps)
			bsp.End()
		}
		if err != nil {
			return cluster.Response{}, err
		}
		if keep {
			for _, ft := range fts {
				state.triplets[ft.id] = ft.enc
			}
			state.remaining = len(state.triplets)
			site.Put(runStateKey(q.runKey), state)
		}
		_, esp := obs.StartSpan(ctx, string(site.ID()), "encode")
		payload := encodeEvalQualResp(fts)
		esp.End()
		return cluster.Response{Payload: payload, Steps: steps}, nil
	}
}

// evalQualCached is handleEvalQual's fast path through the site's
// versioned triplet cache: split the requested fragments into hits
// (answered by memoized encodings) and misses (evaluated on the worker
// pool, then memoized at the version observed before evaluation — a
// concurrent maintenance bump makes such an entry mismatch on its next
// lookup and recompute, so staleness is self-healing).
func evalQualCached(ctx context.Context, site *cluster.Site, q evalQualReq) (cluster.Response, error) {
	cache := siteTripletCache(site)
	fts := make([]fragTriplet, len(q.ids))
	vers := make([]uint64, len(q.ids))
	var missIdx []int
	var missIDs []xmltree.FragmentID
	_, csp := obs.StartSpan(ctx, string(site.ID()), "triplet-cache")
	for i, id := range q.ids {
		vers[i] = site.FragmentVersion(id)
		if enc, ok := cache.lookup(id, vers[i], q.fp); ok {
			fts[i] = fragTriplet{id: id, enc: enc}
		} else {
			missIdx = append(missIdx, i)
			missIDs = append(missIDs, id)
		}
	}
	if csp != nil {
		csp.SetAttr("hits", int64(len(q.ids)-len(missIDs)))
		csp.SetAttr("misses", int64(len(missIDs)))
		csp.End()
	}
	var steps int64
	if len(missIDs) > 0 {
		bctx, bsp := obs.StartSpan(ctx, string(site.ID()), "bottomUp")
		mfts, s, err := evalFragments(bctx, site, q.prog, missIDs)
		if bsp != nil {
			bsp.SetAttr("fragments", int64(len(missIDs)))
			bsp.SetAttr("steps", s)
			bsp.End()
		}
		if err != nil {
			return cluster.Response{}, err
		}
		steps = s
		for j, i := range missIdx {
			fts[i] = mfts[j]
			cache.store(q.ids[i], vers[i], q.fp, fts[i].enc)
			// Journal the fill so a restarted site warm-starts its cache
			// (no-op without an attached durable store).
			site.PersistTriplet(q.ids[i], vers[i], q.fp, fts[i].enc)
		}
	}
	_, esp := obs.StartSpan(ctx, string(site.ID()), "encode")
	payload := encodeEvalQualResp(fts)
	esp.End()
	return cluster.Response{
		Payload:     payload,
		Steps:       steps,
		CacheHits:   int64(len(q.ids) - len(missIDs)),
		CacheMisses: int64(len(missIDs)),
	}, nil
}

// evalFragments runs BottomUp over the given locally stored fragments,
// fanning out over a bounded worker pool, and returns the encoded triplets
// in request order plus the summed step count. Each triplet is encoded
// straight from the arena it was computed in, which then goes back to the
// evaluator's pool.
func evalFragments(ctx context.Context, site *cluster.Site, prog *xpath.Program, ids []xmltree.FragmentID) ([]fragTriplet, int64, error) {
	// Programs decoded off the wire arrive without a compiled lane kernel;
	// compile it once here rather than racing to build it (each winning
	// once, wasting the losers' work) inside the first fragment of every
	// worker.
	prog.PrecompileKernel()
	fts := make([]fragTriplet, len(ids))
	evalOne := func(i int, id xmltree.FragmentID) (int64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		fr, ok := site.Fragment(id)
		if !ok {
			return 0, fmt.Errorf("core: site %s does not store fragment %d", site.ID(), id)
		}
		t, s, err := eval.BottomUp(fr.Root, prog)
		if err != nil {
			return s, fmt.Errorf("core: fragment %d: %w", id, err)
		}
		fts[i] = fragTriplet{id: id, enc: t.Encode()}
		eval.PutArena(t.A)
		return s, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		var steps int64
		for i, id := range ids {
			s, err := evalOne(i, id)
			steps += s
			if err != nil {
				return nil, steps, err
			}
		}
		return fts, steps, nil
	}
	// On the first failure the shared context is cancelled so sibling
	// workers stop at their next fragment instead of finishing work whose
	// result will be discarded. Errors are collected per index and the
	// request-order-first one is reported, keeping the error deterministic
	// across runs (the sequential path's behaviour).
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		steps atomic.Int64
	)
	errs := make([]error, len(ids))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				s, err := evalOne(i, ids[i])
				steps.Add(s)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, steps.Load(), err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, steps.Load(), err
		}
	}
	return fts, steps.Load(), nil
}

// handleResolve is the per-fragment unification step of Procedure
// evalDistrST: gather the resolved triplets of the fragment's
// sub-fragments from their sites (in parallel), substitute them into the
// local triplet, and return a variable-free triplet. The paper formulates
// this as children pushing triplets to parents; pulling from the parent
// side is traffic- and topology-equivalent (see DESIGN.md).
func handleResolve(tr cluster.Transport, cost cluster.CostModel) cluster.Handler {
	return func(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
		runKey, id, err := decodeResolveReq(req.Payload)
		if err != nil {
			return cluster.Response{}, err
		}
		stateAny, ok := site.Get(runStateKey(runKey))
		if !ok {
			return cluster.Response{}, fmt.Errorf("core: site %s has no state for run %q (evalQualKeep first)", site.ID(), runKey)
		}
		state := stateAny.(*runState)
		state.mu.Lock()
		ownEnc, ok := state.triplets[id]
		state.mu.Unlock()
		if !ok {
			return cluster.Response{}, fmt.Errorf("core: run %q has no triplet for fragment %d at %s", runKey, id, site.ID())
		}
		own, err := eval.DecodeTriplet(ownEnc)
		if err != nil {
			return cluster.Response{}, err
		}
		entry, ok := state.st.Entry(id)
		if !ok {
			return cluster.Response{}, fmt.Errorf("core: fragment %d not in source tree", id)
		}

		// Gather children in parallel, as the sites at one level of S_T
		// work concurrently in the paper.
		type childResult struct {
			id    xmltree.FragmentID
			t     eval.Triplet
			stats resolveStats
			err   error
		}
		results := make(chan childResult, len(entry.Children))
		for _, child := range entry.Children {
			go func(child xmltree.FragmentID) {
				centry, ok := state.st.Entry(child)
				if !ok {
					results <- childResult{id: child, err: fmt.Errorf("core: fragment %d not in source tree", child)}
					return
				}
				resp, cc, err := tr.Call(ctx, site.ID(), centry.Site, cluster.Request{
					Kind:    KindResolve,
					Payload: encodeResolveReq(runKey, child),
				})
				if err != nil {
					results <- childResult{id: child, err: err}
					return
				}
				t, cst, err := decodeResolveResp(resp.Payload)
				// The child's reported makespan plus this round trip; the
				// hop's own traffic joins the nested totals.
				cst.simNanos += int64(cc.Net)
				if site.ID() != centry.Site {
					cst.bytes += int64(cc.ReqBytes + cc.RespBytes)
					cst.messages += 2
				}
				results <- childResult{id: child, t: t, stats: cst, err: err}
			}(child)
		}
		subs := make(map[xmltree.FragmentID]eval.Triplet, len(entry.Children))
		var agg resolveStats
		var firstErr error
		for range entry.Children {
			res := <-results
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
			if res.err == nil {
				subs[res.id] = res.t
				if res.stats.simNanos > agg.simNanos {
					agg.simNanos = res.stats.simNanos // parallel: makespan is the max
				}
				agg.bytes += res.stats.bytes
				agg.messages += res.stats.messages
				agg.steps += res.stats.steps
			}
		}
		if firstErr != nil {
			return cluster.Response{}, firstErr
		}
		resolved, work, err := eval.ResolveTriplet(id, own, subs, state.prog)
		if err != nil {
			return cluster.Response{}, err
		}
		agg.simNanos += int64(cost.ComputeTime(work))
		agg.steps += work
		// Every fragment is resolved exactly once per run; drop the run
		// state once this site's last fragment has been resolved.
		state.mu.Lock()
		state.remaining--
		done := state.remaining <= 0
		state.mu.Unlock()
		if done {
			site.Delete(runStateKey(runKey))
		}
		return cluster.Response{Payload: encodeResolveResp(resolved, agg), Steps: work}, nil
	}
}

// handleCleanup drops cached run state.
func handleCleanup(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	site.Delete(runStateKey(string(req.Payload)))
	return cluster.Response{}, nil
}

// handleFetchFragments ships whole fragments, the data movement
// NaiveCentralized pays for.
func handleFetchFragments(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	ids, err := decodeFetchReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	frs := make([]*frag.Fragment, 0, len(ids))
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return cluster.Response{}, err
		}
		fr, ok := site.Fragment(id)
		if !ok {
			return cluster.Response{}, fmt.Errorf("core: site %s does not store fragment %d", site.ID(), id)
		}
		frs = append(frs, fr)
	}
	return cluster.Response{Payload: encodeFetchResp(frs)}, nil
}

// handleEvalFragDist is NaiveDistributed's per-fragment step: evaluate the
// fragment locally, then sequentially descend into each sub-fragment's
// site, blocking until it answers — the distributed bottom-up traversal
// whose control passes "forth and back" between sites. The response is a
// variable-free triplet plus the accumulated modeled time of the whole
// (sequential) sub-computation.
func handleEvalFragDist(tr cluster.Transport, cost cluster.CostModel) cluster.Handler {
	return func(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
		prog, st, id, err := decodeEvalFragDistReq(req.Payload)
		if err != nil {
			return cluster.Response{}, err
		}
		fr, ok := site.Fragment(id)
		if !ok {
			return cluster.Response{}, fmt.Errorf("core: site %s does not store fragment %d", site.ID(), id)
		}
		own, steps, err := eval.BottomUp(fr.Root, prog)
		if err != nil {
			return cluster.Response{}, err
		}
		entry, ok := st.Entry(id)
		if !ok {
			return cluster.Response{}, fmt.Errorf("core: fragment %d not in source tree", id)
		}
		var agg resolveStats
		subs := make(map[xmltree.FragmentID]eval.Triplet, len(entry.Children))
		for _, child := range entry.Children {
			centry, ok := st.Entry(child)
			if !ok {
				return cluster.Response{}, fmt.Errorf("core: fragment %d not in source tree", child)
			}
			resp, cc, err := tr.Call(ctx, site.ID(), centry.Site, cluster.Request{
				Kind:    KindEvalFragDist,
				Payload: encodeEvalFragDistReq(prog, st, child),
			})
			if err != nil {
				return cluster.Response{}, err
			}
			t, cst, err := decodeResolveResp(resp.Payload)
			if err != nil {
				return cluster.Response{}, err
			}
			subs[child] = t
			agg.simNanos += cst.simNanos + int64(cc.Net) // sequential: children add up
			agg.bytes += cst.bytes
			agg.messages += cst.messages
			agg.steps += cst.steps
			if site.ID() != centry.Site {
				agg.bytes += int64(cc.ReqBytes + cc.RespBytes)
				agg.messages += 2
			}
		}
		resolved, work, err := eval.ResolveTriplet(id, own, subs, prog)
		if err != nil {
			return cluster.Response{}, err
		}
		agg.simNanos += int64(cost.ComputeTime(steps + work))
		agg.steps += steps + work
		return cluster.Response{Payload: encodeResolveResp(resolved, agg), Steps: steps + work}, nil
	}
}
