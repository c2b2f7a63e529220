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
// stage 2 (evalQualKeep) and stage 3 (a resolve that carries the run key):
// the program, the site's copy of the source tree, and the local triplets
// — kept encoded; each resolve decodes its fragment's into an arena of its
// own. NaiveDistributed's resolve carries the program and source tree
// itself and leaves no state behind.
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
// the transport the site uses to reach its peers (needed by the
// site-to-site resolve of NaiveDistributed and FullDistParBoX) and cost
// is the cost model the site uses to report modeled times for its own
// computation.
//
// The same registration serves the in-process cluster and a TCP site
// daemon.
func RegisterHandlers(site *cluster.Site, tr cluster.Transport, cost cluster.CostModel) {
	site.Handle(KindEvalQual, handleEvalQual(false))
	site.Handle(KindEvalQualKeep, handleEvalQual(true))
	site.Handle(KindResolve, handleResolve(tr, cost))
	site.Handle(KindCleanup, handleCleanup)
	site.Handle(KindFetchFragments, handleFetchFragments)
	site.Handle(KindSelectTransfer, handleSelectTransfer)
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
// accounting can see the cache working. The cache is keyed only by a
// fingerprint the site computed: a request whose fingerprint is not its
// program's is refused with a FingerprintMismatchError.
//
// With keep=true (FullDistParBoX's stage 2) the triplets stay at the site
// for the resolve that follows, and the response is an empty
// acknowledgement: in FullDist no variable ever travels.
func handleEvalQual(keep bool) cluster.Handler {
	return func(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
		q, err := decodeEvalQualReq(req.Payload)
		if err != nil {
			return cluster.Response{}, err
		}
		if keep && q.st == nil {
			return cluster.Response{}, fmt.Errorf("%w: evalQualKeep without source tree", ErrBadMessage)
		}
		if q.fp != 0 && !keep {
			if fp := q.prog.Fingerprint(); fp != q.fp {
				return cluster.Response{}, &FingerprintMismatchError{Sent: q.fp, Computed: fp}
			}
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
			state := &runState{prog: q.prog, st: q.st, triplets: make(map[xmltree.FragmentID][]byte, len(fts))}
			for _, ft := range fts {
				state.triplets[ft.id] = ft.enc
			}
			state.remaining = len(state.triplets)
			site.Put(runStateKey(q.runKey), state)
			return cluster.Response{Steps: steps}, nil
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
// lookup and recompute, so staleness is self-healing). A miss evaluated
// while an in-place edit was in flight (Site.EditSeq moved or was odd)
// is answered but not memoized: the edit may be undone at the same
// version.
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
		seqs := make([]uint64, len(missIDs))
		for j, id := range missIDs {
			seqs[j] = site.EditSeq(id)
		}
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
			if seqs[j]%2 != 0 || site.EditSeq(q.ids[i]) != seqs[j] {
				continue // evaluated during an in-place edit: don't cache it
			}
			cache.store(q.ids[i], vers[i], q.fp, fts[i].enc)
			// Journal the fill so a restarted site warm-starts its cache
			// (no-op without an attached durable store).
			site.PersistTriplets(q.ids[i], vers[i], []frag.Triplet{{FP: q.fp, Enc: fts[i].enc}})
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

// handleResolve is the site-to-site recursion of NaiveDistributed and of
// FullDistParBoX's third phase (Procedure evalDistrST): take the
// fragment's own triplet, gather its sub-fragments' resolved triplets from
// their sites, substitute them in, and return a variable-free triplet. The
// two algorithms differ in two bits, both read off the run key:
//
//   - FullDist (run key set): the own triplet is the one stage 2 cached
//     in the run state, and the children are resolved in parallel, as the
//     sites at one level of S_T work concurrently in the paper;
//   - NaiveDistributed (empty run key): the site runs bottomUp on arrival,
//     and the children are visited one at a time — control passes "forth
//     and back" between sites and nothing runs in parallel.
//
// The paper formulates evalDistrST as children pushing triplets to
// parents; pulling from the parent side is traffic- and
// topology-equivalent (see DESIGN.md). The response carries the
// sub-computation's modeled time — the children's makespan, summed when
// they ran in sequence — and its nested traffic and steps.
func handleResolve(tr cluster.Transport, cost cluster.CostModel) cluster.Handler {
	return func(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
		q, err := decodeResolveReq(req.Payload)
		if err != nil {
			return cluster.Response{}, err
		}
		var (
			own   eval.Triplet
			steps int64
			state *runState
			limit = 1
		)
		if q.runKey == "" {
			fr, ok := site.Fragment(q.id)
			if !ok {
				return cluster.Response{}, fmt.Errorf("core: site %s does not store fragment %d", site.ID(), q.id)
			}
			if own, steps, err = eval.BottomUp(fr.Root, q.prog); err != nil {
				return cluster.Response{}, err
			}
		} else {
			stateAny, ok := site.Get(runStateKey(q.runKey))
			if !ok {
				return cluster.Response{}, fmt.Errorf("core: site %s has no state for run %q (evalQualKeep first)", site.ID(), q.runKey)
			}
			state = stateAny.(*runState)
			state.mu.Lock()
			ownEnc, ok := state.triplets[q.id]
			state.mu.Unlock()
			if !ok {
				return cluster.Response{}, fmt.Errorf("core: run %q has no triplet for fragment %d at %s", q.runKey, q.id, site.ID())
			}
			if own, err = eval.DecodeTriplet(ownEnc); err != nil {
				return cluster.Response{}, err
			}
			q.prog, q.st, limit = state.prog, state.st, 0
		}
		entry, ok := q.st.Entry(q.id)
		if !ok {
			return cluster.Response{}, fmt.Errorf("core: fragment %d not in source tree", q.id)
		}
		jobs := make([]scatterJob[resolved], len(entry.Children))
		for i, child := range entry.Children {
			to, _ := q.st.Site(child) // a source tree derives Children from its entries
			creq := q
			creq.id = child
			remote := to != site.ID()
			jobs[i] = scatterJob[resolved]{
				to:  to,
				req: cluster.Request{Kind: KindResolve, Payload: encodeResolveReq(creq)},
				dec: func(resp cluster.Response, cc cluster.CallCost) (resolved, error) {
					t, cst, err := decodeResolveResp(resp.Payload)
					// The child's makespan plus this round trip; a remote
					// hop's own traffic joins the nested totals.
					cst.simNanos += int64(cc.Net)
					if remote {
						cst.bytes += int64(cc.ReqBytes + cc.RespBytes)
						cst.messages += 2
					}
					return resolved{t, cst}, err
				},
			}
		}
		children, _, err := scatter(ctx, fanout{tr: tr, from: site.ID(), limit: limit}, jobs, nil)
		if err != nil {
			return cluster.Response{}, err
		}
		subs := make(map[xmltree.FragmentID]eval.Triplet, len(children))
		var agg resolveStats
		for i, c := range children {
			subs[entry.Children[i]] = c.t
			if limit == 1 {
				agg.simNanos += c.stats.simNanos
			} else {
				agg.simNanos = max(agg.simNanos, c.stats.simNanos)
			}
			agg.bytes += c.stats.bytes
			agg.messages += c.stats.messages
			agg.steps += c.stats.steps
		}
		t, work, err := eval.ResolveTriplet(q.id, own, subs, q.prog)
		if err != nil {
			return cluster.Response{}, err
		}
		steps += work
		agg.simNanos += int64(cost.ComputeTime(steps))
		agg.steps += steps
		if state != nil {
			// Every fragment is resolved exactly once per run; drop the run
			// state once this site's last fragment has been resolved.
			state.mu.Lock()
			state.remaining--
			done := state.remaining <= 0
			state.mu.Unlock()
			if done {
				site.Delete(runStateKey(q.runKey))
			}
		}
		return cluster.Response{Payload: encodeResolveResp(t, agg), Steps: steps}, nil
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
