package core

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Report is the outcome of one distributed evaluation, whatever its mode:
// the result (Answer for a Boolean query, Answers for a batch, Paths and
// Count for a selection, Count and PerSite for a count; the rest stay
// zero) plus the accounting the paper's experiments plot.
type Report struct {
	Algorithm Algorithm
	Answer    bool
	// Answers are a batch's answers, in the order the queries were given
	// to CompileBatch (ParBoXBatch only).
	Answers []bool
	// Paths holds, per fragment, the nodes a selection query selected, as
	// child-index paths from the fragment root (SelectParBoX only).
	Paths map[xmltree.FragmentID][][]int
	// Count is the total number of selected nodes, and PerSite its
	// breakdown by the site that found them (SelectParBoX, CountParBoX).
	Count   int64
	PerSite map[frag.SiteID]int64
	// SimTime is the deterministic modeled elapsed (parallel) time: network
	// transfers per the cost model plus per-site computation at
	// StepsPerSecond, maxed over concurrent branches and summed over
	// sequential phases. The figures are plotted from this.
	SimTime time.Duration
	// Wall is the measured wall-clock duration of the run (of its last
	// attempt, when rounds were retried).
	Wall time.Duration
	// TotalSteps is the summed node×subquery computation over all sites,
	// including the coordinator's solve work.
	TotalSteps int64
	// Bytes is the total remote payload traffic of this run.
	Bytes int64
	// Messages counts remote requests+responses.
	Messages int64
	// Visits counts, per site, the requests it served for other sites.
	Visits map[frag.SiteID]int64
	// SolveWork is the formula work of the coordinator's evalST phase.
	SolveWork int64
	// CacheHits/CacheMisses count fragments answered from the sites'
	// versioned triplet caches versus fragments that ran bottomUp, summed
	// over the run (both zero when the cache is disabled).
	CacheHits, CacheMisses int64
	// Failovers counts the retries the query drew from its retry budget:
	// scatter jobs re-placed onto another replica after a site failure
	// plus whole-round retries, over every attempt — so never more than
	// the budget. Set in one place, withRetry; zero without a serving
	// tier. The other counters describe the attempt that succeeded.
	Failovers int64
	// Hedges counts speculative duplicate calls this run issued against a
	// slow replica's next-best sibling; HedgeWins counts how many of them
	// answered first. Only the winning attempt of a hedged pair is
	// reflected in Bytes/Messages/TotalSteps. Zero with hedging disabled.
	Hedges, HedgeWins int64
}

// BatchReport is the Report of a ParBoXBatch round (Answers filled).
type BatchReport = Report

// Engine evaluates queries over one fragmented document hosted on a
// cluster. It is the coordinating site of the paper: it holds the source
// tree and speaks the ParBoX protocol to the participating sites.
type Engine struct {
	tr    cluster.Transport
	coord frag.SiteID
	st    *frag.SourceTree
	cost  cluster.CostModel
	// cache, when set, makes the Boolean serving paths (ParBoX,
	// ParBoXBatch) send the program fingerprint with every evalQual
	// request, enabling the sites' versioned triplet caches. Set it before
	// the engine starts serving (EnableTripletCache); it is read without
	// synchronization.
	cache bool
	// tier, when set, is the replica-aware serving tier: every run plans
	// its source tree through it and failed scatter jobs fail over to
	// other live replicas (see tier.go). Set during setup (SetTier); read
	// without synchronization.
	tier Tier
	// retryPol shapes the per-query retry discipline (see withRetry).
	// Zero value = package defaults. Set during setup (SetRetryPolicy);
	// read without synchronization.
	retryPol backoff.Policy
	// rr is the live retry budget of the query this engine copy serves:
	// withRetry sets it on the per-query copy whose st it planned through
	// the tier, so non-nil also means "already inside a query" to nested
	// dispatches. Always nil without a tier.
	rr *backoff.Retry
}

// SetRetryPolicy shapes the engine's retry discipline: every query gets a
// fresh budget from the policy, consumed by both whole-round retries
// (which sleep, exponential backoff + full jitter, floored at any
// server-provided retry-after hint) and job-level failover re-placements
// (which never sleep — they run on the round's collector). Call during
// setup, before the engine serves.
func (e *Engine) SetRetryPolicy(pol backoff.Policy) { e.retryPol = pol }

// EnableTripletCache turns the sites' versioned per-fragment triplet cache
// on or off for this engine's ParBoX/ParBoXBatch runs. Call it during
// setup, before the engine serves concurrent queries.
func (e *Engine) EnableTripletCache(on bool) { e.cache = on }

// fingerprint returns the cache key to send with evalQual requests: the
// program's fingerprint when caching is enabled, else 0 (cache bypassed).
func (e *Engine) fingerprint(prog *xpath.Program) uint64 {
	if !e.cache {
		return 0
	}
	return prog.Fingerprint()
}

// runSeq issues process-wide unique run sequence numbers. It is shared by
// every Engine: engines are cheap per-run views over (transport,
// coordinator, source tree) that may be created concurrently against the
// same sites, so a per-engine counter would collide on the sites' keyed
// run state.
var runSeq atomic.Int64

// runNonce distinguishes coordinator *processes*: two coordinators with
// the same site name — concurrent `parbox remote` invocations against
// shared site daemons — would otherwise both start their sequence at 1
// and collide on the sites' keyed run state (one run's self-destructing
// state tearing down the other's). Fixed width keeps the run key's wire
// length, and with it byte accounting, stable across processes and runs.
var runNonce = func() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.BigEndian.Uint64(b[:])
}()

// NewEngine builds an engine for the document described by st, coordinated
// from site coord. The cost model must match the one the sites were
// registered with for the modeled times to be coherent.
func NewEngine(tr cluster.Transport, coord frag.SiteID, st *frag.SourceTree, cost cluster.CostModel) *Engine {
	return &Engine{tr: tr, coord: coord, st: st, cost: cost}
}

// SourceTree returns the engine's source tree.
func (e *Engine) SourceTree() *frag.SourceTree { return e.st }

// Coordinator returns the coordinating site.
func (e *Engine) Coordinator() frag.SiteID { return e.coord }

// Run dispatches to the given algorithm. Run (and every per-algorithm
// method it dispatches to) is safe for concurrent use: each run owns its
// recorder, and the state FullDistParBoX caches at the sites is keyed by a
// unique run key.
func (e *Engine) Run(ctx context.Context, algo Algorithm, prog *xpath.Program) (Report, error) {
	switch algo {
	case AlgoParBoX:
		return e.ParBoX(ctx, prog)
	case AlgoNaiveCentralized:
		return e.NaiveCentralized(ctx, prog)
	case AlgoNaiveDistributed:
		return e.NaiveDistributed(ctx, prog)
	case AlgoHybrid:
		return e.Hybrid(ctx, prog)
	case AlgoFullDist:
		return e.FullDist(ctx, prog)
	case AlgoLazy:
		return e.Lazy(ctx, prog)
	default:
		return Report{}, fmt.Errorf("core: unknown algorithm %v", algo)
	}
}

// recorder accumulates per-run accounting from call costs.
type recorder struct {
	mu          sync.Mutex
	bytes       int64
	messages    int64
	steps       int64
	cacheHits   int64
	cacheMisses int64
	hedges      int64
	hedgeWins   int64
	visits      map[frag.SiteID]int64
}

func newRecorder() *recorder { return &recorder{visits: make(map[frag.SiteID]int64)} }

func (r *recorder) record(from, to frag.SiteID, cost cluster.CallCost, resp cluster.Response) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.steps += cost.Steps
	r.cacheHits += resp.CacheHits
	r.cacheMisses += resp.CacheMisses
	if from != to {
		r.bytes += int64(cost.ReqBytes + cost.RespBytes)
		r.messages += 2
		r.visits[to]++
	}
}

// hedge counts one speculative duplicate launched; hedgeWin counts one
// whose answer beat the primary's.
func (r *recorder) hedge() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hedges++
}

func (r *recorder) hedgeWin() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hedgeWins++
}

// fill copies the counters into a report — the one rule by which
// accounting reaches any Report.
func (r *recorder) fill(rep *Report) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep.Bytes = r.bytes
	rep.Messages = r.messages
	rep.TotalSteps = r.steps
	rep.CacheHits = r.cacheHits
	rep.CacheMisses = r.cacheMisses
	rep.Hedges = r.hedges
	rep.HedgeWins = r.hedgeWins
	rep.Visits = make(map[frag.SiteID]int64, len(r.visits))
	for k, v := range r.visits {
		rep.Visits[k] = v
	}
}

// ParBoX is Algorithm ParBoX (Fig. 3a): broadcast the QList to every site
// holding fragments (each visited exactly once), collect the triplets
// computed in parallel, and solve the Boolean equation system over the
// source tree.
func (e *Engine) ParBoX(ctx context.Context, prog *xpath.Program) (Report, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) {
		r := e.newRound()
		defer r.release()
		if err := r.gather(ctx, prog, e.fingerprint(prog), e.st.Fragments()); err != nil {
			return Report{}, err
		}
		ans, work, err := eval.Solve(e.st, r.triplets, prog)
		if err != nil {
			return Report{}, err
		}
		r.solved(work)
		rep := r.report(AlgoParBoX)
		rep.Answer = ans
		return rep, nil
	})
}

// ParBoXBatch answers a whole batch of Boolean queries with a single
// ParBoX round: one shared QList (compiled with xpath.CompileBatch), one
// visit per site, one equation solve. For a dissemination system with N
// overlapping subscriptions, this costs one traversal of each fragment
// instead of N — the per-node work is the shared program's size, which
// hash-consing keeps below the sum of the individual sizes.
func (e *Engine) ParBoXBatch(ctx context.Context, prog *xpath.Program, roots []int32) (BatchReport, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) {
		r := e.newRound()
		defer r.release()
		if err := r.gather(ctx, prog, e.fingerprint(prog), e.st.Fragments()); err != nil {
			return Report{}, err
		}
		answers, work, err := eval.SolveMulti(e.st, r.triplets, prog, roots)
		if err != nil {
			return Report{}, err
		}
		r.solved(work)
		rep := r.report(AlgoParBoX)
		rep.Answers = answers
		return rep, nil
	})
}

// NaiveCentralized collects every fragment at the coordinating site and
// evaluates centrally — O(|T|) communication, the data-shipping baseline.
// Fetches fan out in parallel, but the modeled time charges all transfers
// to the coordinator's link, which is the bottleneck resource.
func (e *Engine) NaiveCentralized(ctx context.Context, prog *xpath.Program) (Report, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) { return e.naiveCentralized(ctx, prog) })
}

func (e *Engine) naiveCentralized(ctx context.Context, prog *xpath.Program) (Report, error) {
	start := time.Now()
	rec := newRecorder()
	sites := e.st.Sites()

	var jobs []scatterJob[[]*frag.Fragment]
	// The coordinator's link is the bottleneck resource: its transfer
	// times add up rather than overlap, so the modeled time is the SUM of
	// the fetches' network costs, accumulated here (decoders run
	// concurrently) instead of taking scatter's parallel makespan.
	var netNanos atomic.Int64
	// Fetching is a pure function of the fragment list, so a dead site's
	// fetch can fail over to any other replica (its kind is Pure).
	mkFetch := func(site frag.SiteID, ids []xmltree.FragmentID) scatterJob[[]*frag.Fragment] {
		return scatterJob[[]*frag.Fragment]{
			to:    site,
			frags: ids,
			req: cluster.Request{
				Kind:    KindFetchFragments,
				Payload: encodeFetchReq(ids),
			},
			dec: func(resp cluster.Response, cost cluster.CallCost) ([]*frag.Fragment, error) {
				netNanos.Add(int64(cost.Net))
				return decodeFetchResp(resp.Payload)
			},
		}
	}
	// The coordinator fetches its own fragments too: a local call, free
	// of traffic, that copies each tree under its read lock.
	for _, site := range sites {
		jobs = append(jobs, mkFetch(site, e.st.FragmentsAt(site)))
	}
	fetched, _, err := scatter(ctx, e.fanout(rec), jobs, mkFetch)
	if err != nil {
		return Report{}, err
	}
	var frs []*frag.Fragment
	for _, part := range fetched {
		frs = append(frs, part...)
	}
	simTransfer := time.Duration(netNanos.Load())

	forest, err := frag.FromFragments(frs, e.st.Root())
	if err != nil {
		return Report{}, fmt.Errorf("core: reassembling fetched fragments: %w", err)
	}
	doc, err := forest.Assemble()
	if err != nil {
		return Report{}, err
	}
	ans, steps, err := eval.Evaluate(doc, prog)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Algorithm: AlgoNaiveCentralized,
		Answer:    ans,
		SimTime:   simTransfer + e.cost.ComputeTime(steps),
		Wall:      time.Since(start),
	}
	rec.steps += steps
	rec.fill(&rep)
	return rep, nil
}

// NaiveDistributed performs the distributed sequential bottom-up traversal
// of Section 3: control passes from a fragment to each of its
// sub-fragments' sites in turn, so a site is visited once per fragment it
// stores (below a fragment of another site) and nothing runs in parallel.
func (e *Engine) NaiveDistributed(ctx context.Context, prog *xpath.Program) (Report, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) {
		return e.resolve(ctx, time.Now(), newRecorder(), AlgoNaiveDistributed, prog, "")
	})
}

// resolve runs the site-to-site recursion from the root fragment — all of
// NaiveDistributed (empty runKey: the sites evaluate on arrival) and
// FullDist's third phase (the sites read the run state stage 2 left) — and
// reports it, with SimTime the recursion's modeled time and Wall measured
// from start. The nested hops travel in no message the coordinator sees:
// their traffic and steps arrive in the root's resolveStats, and their
// visits are the hops a successful recursion makes — one per fragment
// whose parent fragment is stored at another site.
func (e *Engine) resolve(ctx context.Context, start time.Time, rec *recorder, algo Algorithm, prog *xpath.Program, runKey string) (Report, error) {
	root := e.st.Root()
	rootSite, _ := e.st.Site(root) // a source tree always has its root entry
	out, _, err := scatter(ctx, e.fanout(rec), []scatterJob[resolved]{{
		to:  rootSite,
		req: cluster.Request{Kind: KindResolve, Payload: encodeResolveReq(resolveReq{runKey: runKey, id: root, prog: prog, st: e.st})},
		dec: func(resp cluster.Response, cost cluster.CallCost) (resolved, error) {
			t, stats, err := decodeResolveResp(resp.Payload)
			stats.simNanos += int64(cost.Net)
			stats.steps -= resp.Steps // the call recorded the root's own steps
			return resolved{t, stats}, err
		},
	}}, nil)
	if err != nil {
		return Report{}, err
	}
	t, stats := out[0].t, out[0].stats
	if len(t.V) != len(prog.Subs) {
		return Report{}, fmt.Errorf("%w: %s resolved triplet has arity %d, want %d", ErrBadMessage, algo, len(t.V), len(prog.Subs))
	}
	ans, ok := t.A.ConstValue(t.V[prog.Root()])
	if !ok {
		return Report{}, fmt.Errorf("core: %s produced a residual answer %v", algo, t.A.String(t.V[prog.Root()]))
	}
	rec.mu.Lock()
	rec.bytes += stats.bytes
	rec.messages += stats.messages
	rec.steps += stats.steps
	for _, id := range e.st.Fragments() {
		entry, _ := e.st.Entry(id)
		if parent, ok := e.st.Entry(entry.Parent); ok && parent.Site != entry.Site {
			rec.visits[entry.Site]++
		}
	}
	rec.mu.Unlock()
	rep := Report{
		Algorithm: algo,
		Answer:    ans,
		SimTime:   time.Duration(stats.simNanos),
		Wall:      time.Since(start),
	}
	rec.fill(&rep)
	return rep, nil
}

// Hybrid is HybridParBoX (Section 4): ParBoX while card(F) < |T|/|q|,
// NaiveCentralized past the tipping point (pathological fragmentations
// where shipping formulas costs more than shipping the data).
func (e *Engine) Hybrid(ctx context.Context, prog *xpath.Program) (Report, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) {
		run := e.NaiveCentralized
		if e.st.Count()*prog.QListSize() < e.st.TotalSize() {
			run = e.ParBoX
		}
		rep, err := run(ctx, prog)
		if err != nil {
			return Report{}, err
		}
		rep.Algorithm = AlgoHybrid
		return rep, nil
	})
}

// FullDist is FullDistParBoX (Section 4): stage 2 caches the triplets at
// the sites (each holding a copy of the source tree), and the third phase
// runs evalDistrST — triplets are unified site-by-site up the source tree,
// so no variables ever travel and the coordinator is no bottleneck.
func (e *Engine) FullDist(ctx context.Context, prog *xpath.Program) (Report, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) {
		start := time.Now()
		rec := newRecorder()
		// Zero-padded so the key's wire length is independent of how many
		// runs preceded this one — byte accounting stays differentially
		// comparable across transports and runs.
		runKey := fmt.Sprintf("%s-%016x-%010d", e.coord, runNonce, runSeq.Add(1))
		sites := e.st.Sites()

		// Stage 2 (parallel): evalQual with caching.
		jobs := make([]scatterJob[struct{}], len(sites))
		for i, site := range sites {
			jobs[i] = scatterJob[struct{}]{
				to: site,
				req: cluster.Request{
					Kind:    KindEvalQualKeep,
					Payload: encodeEvalQualReq(evalQualReq{prog: prog, ids: e.st.FragmentsAt(site), runKey: runKey, st: e.st}),
				},
				// The response is an empty acknowledgement.
				dec: func(cluster.Response, cluster.CallCost) (struct{}, error) { return struct{}{}, nil },
			}
		}
		_, simStage2, err := scatter(ctx, e.fanout(rec), jobs, nil)
		if err != nil {
			e.cleanup(ctx, runKey)
			return Report{}, err
		}

		// Stage 3: resolve the root fragment; unification cascades down/up the
		// source tree between the sites themselves. No cleanup on success: run
		// states self-destruct once each site's last fragment has been
		// resolved, keeping the per-site visit count at the paper's
		// 1 + card(F_Si).
		rep, err := e.resolve(ctx, start, rec, AlgoFullDist, prog, runKey)
		if err != nil {
			e.cleanup(ctx, runKey)
			return Report{}, err
		}
		rep.SimTime += simStage2
		return rep, nil
	})
}

// cleanup drops a failed run's cached state at every site, fanned out
// asynchronously and best effort: failures must not mask the result,
// and one site's failure must not stop the others' cleanup (so no
// cancel-on-first-error scatter here).
func (e *Engine) cleanup(ctx context.Context, runKey string) {
	sites := e.st.Sites()
	replies := make([]<-chan cluster.Reply, len(sites))
	for i, site := range sites {
		replies[i] = cluster.Go(ctx, e.tr, e.coord, site, cluster.Request{Kind: KindCleanup, Payload: []byte(runKey)})
	}
	for _, ch := range replies {
		<-ch
	}
}

// Lazy is LazyParBoX (Section 4): evaluate the source tree in increasing
// depths, attempting to solve the partial equation system after each step,
// and stop as soon as the answer no longer depends on deeper fragments.
// Per the paper, the first step covers the coordinator AND the fragments
// at depth 1 ("LazyParBoX initially evaluates a query only in the
// coordinator and in the fragments of depth 1"); each further step
// descends one level. Within a step sites work in parallel; steps are
// sequential.
func (e *Engine) Lazy(ctx context.Context, prog *xpath.Program) (Report, error) {
	return e.withRetry(ctx, func(e *Engine) (Report, error) {
		r := e.newRound()
		defer r.release()
		steps := e.st.Levels()
		if len(steps) >= 2 {
			first := append(append([]xmltree.FragmentID(nil), steps[0]...), steps[1]...)
			steps = append([][]xmltree.FragmentID{first}, steps[2:]...)
		}
		for _, level := range steps {
			// Each site evaluates its fragments of this level only, through
			// its triplet cache when the engine enables it.
			if err := r.gather(ctx, prog, e.fingerprint(prog), level); err != nil {
				return Report{}, err
			}
			ans, work, resolved, err := eval.SolvePartial(e.st, r.triplets, prog)
			r.solved(work)
			if err != nil {
				return Report{}, err
			}
			if resolved {
				rep := r.report(AlgoLazy)
				rep.Answer = ans
				return rep, nil
			}
		}
		return Report{}, fmt.Errorf("core: LazyParBoX exhausted all levels without resolving (inconsistent source tree?)")
	})
}
