package core

import (
	"context"
	"encoding/binary"
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
// bottomUp steps, and only the remaining fragments are evaluated. A hit
// takes no tree lock: it answers the last committed version, which is
// admissible. The response reports hits and misses so coordinator- and
// cluster-level accounting can see the cache working. The cache is keyed
// only by a fingerprint the site computed: a request whose fingerprint is
// not its program's is refused with a FingerprintMismatchError.
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
		if keep {
			q.fp = 0 // stage 2 of FullDist keeps its triplets, not the cache's
		}
		fts := make([]fragTriplet, len(q.ids))
		todo := len(q.ids)
		for i, id := range q.ids {
			fts[i].id = id
		}
		if q.fp != 0 {
			if fp := q.prog.Fingerprint(); fp != q.fp {
				return cluster.Response{}, &FingerprintMismatchError{Sent: q.fp, Computed: fp}
			}
			_, csp := obs.StartSpan(ctx, string(site.ID()), "triplet-cache")
			cache := siteTripletCache(site)
			for i, id := range q.ids {
				if enc, ok := cache.lookup(id, site.FragmentVersion(id), q.fp); ok {
					fts[i].enc = enc
					todo--
				}
			}
			if csp != nil {
				csp.SetAttr("hits", int64(len(q.ids)-todo))
				csp.SetAttr("misses", int64(todo))
				csp.End()
			}
		}
		var steps, misses int64
		if todo > 0 {
			bctx, bsp := obs.StartSpan(ctx, string(site.ID()), "bottomUp")
			steps, misses, err = evalFragments(bctx, site, q.prog, fts, q.fp)
			if bsp != nil {
				bsp.SetAttr("fragments", int64(todo))
				bsp.SetAttr("steps", steps)
				bsp.End()
			}
			if err != nil {
				return cluster.Response{}, err
			}
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
		resp := cluster.Response{Payload: payload, Steps: steps}
		if q.fp != 0 {
			resp.CacheHits, resp.CacheMisses = int64(len(q.ids))-misses, misses
		}
		return resp, nil
	}
}

// evalFragments fills every entry of fts that has no encoding yet: it runs
// BottomUp over the locally stored fragment, under the fragment's read
// lock, fanning out over a bounded worker pool, and returns the summed
// step count and how many fragments it evaluated. Each triplet is encoded
// straight from the arena it was computed in, which then goes back to the
// evaluator's pool. With a program fingerprint fp != 0 the site's triplet
// cache is looked up again under the lock, at the version the lock holds:
// a reader that queued behind an update then hits the entry the update
// patched. A fragment still missing is memoized at that exact version —
// and journaled, so a restarted site warm-starts its cache (a no-op
// without an attached store).
func evalFragments(ctx context.Context, site *cluster.Site, prog *xpath.Program, fts []fragTriplet, fp uint64) (int64, int64, error) {
	// Programs decoded off the wire arrive without a compiled lane kernel;
	// compile it once here rather than racing to build it (each winning
	// once, wasting the losers' work) inside the first fragment of every
	// worker.
	prog.PrecompileKernel()
	cache := siteTripletCache(site)
	var evaluated atomic.Int64
	evalOne := func(i int) (steps int64, err error) {
		if fts[i].enc != nil {
			return 0, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		id := fts[i].id
		err = site.ReadFragment(id, func(fr *frag.Fragment, version uint64) error {
			if fp != 0 {
				if enc, ok := cache.lookup(id, version, fp); ok {
					fts[i].enc = enc
					return nil
				}
			}
			t, s, err := eval.BottomUp(fr.Root, prog)
			steps = s
			if err != nil {
				return fmt.Errorf("core: fragment %d: %w", id, err)
			}
			fts[i].enc = t.Encode()
			eval.PutArena(t.A)
			evaluated.Add(1)
			if fp != 0 {
				cache.store(id, version, fp, fts[i].enc)
				site.PersistTriplets(id, version, []frag.Triplet{{FP: fp, Enc: fts[i].enc}})
			}
			return nil
		})
		return steps, err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(fts) {
		workers = len(fts)
	}
	if workers <= 1 {
		var steps int64
		for i := range fts {
			s, err := evalOne(i)
			steps += s
			if err != nil {
				return steps, evaluated.Load(), err
			}
		}
		return steps, evaluated.Load(), nil
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
	errs := make([]error, len(fts))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fts) {
					return
				}
				s, err := evalOne(i)
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
			return steps.Load(), evaluated.Load(), err
		}
	}
	for _, err := range errs {
		if err != nil {
			return steps.Load(), evaluated.Load(), err
		}
	}
	return steps.Load(), evaluated.Load(), nil
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
			err := site.ReadFragment(q.id, func(fr *frag.Fragment, _ uint64) (err error) {
				own, steps, err = eval.BottomUp(fr.Root, q.prog)
				return err
			})
			if err != nil {
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
// NaiveCentralized pays for, each encoded under its read lock.
func handleFetchFragments(ctx context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	ids, err := decodeFetchReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	dst := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return cluster.Response{}, err
		}
		if err := site.ReadFragment(id, func(fr *frag.Fragment, _ uint64) error {
			dst = appendFetchedFragment(dst, fr)
			return nil
		}); err != nil {
			return cluster.Response{}, err
		}
	}
	return cluster.Response{Payload: dst}, nil
}
