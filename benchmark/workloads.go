package main

import (
	"context"
	"fmt"

	parbox "repro"
	"repro/internal/frag"
)

// workload is one named traffic mix against one deployment. Every workload
// runs the same four phases in each repetition — queries, selections,
// updates with notifications, restarts — so every end-to-end metric is
// measured on every workload; what differs is the deployment, the query
// mix, and which phase the op counts make dominant.
type workload struct {
	name string
	why  string

	clients int // closed-loop clients of the query and selection phases
	// Per-repetition op counts at defaultSeconds.
	queryOps, selectOps, updateOps, restartIters int
	// beside runs the update phase as one client beside one reader client
	// instead of after the query phase.
	beside bool
	// queriesFromRestarts takes the query metrics from the standing
	// answers given right after each restore's first one.
	queriesFromRestarts bool
	// imageUpdates is how many updates the restart images have absorbed.
	imageUpdates int
	// What the traced pass assembles its own systems from: the query mix,
	// and whether the deployment caches triplets, journals to a store, and
	// talks over sockets.
	mix                     queryMix
	cache, durable, overTCP bool

	setup        func(ctx context.Context, e *env, w *workload) (*deployment, error)
	assertBypass func(perRep map[string][]float64) []string
}

// queryMix is the kind of query op a workload's query phase issues.
type queryMix uint8

const (
	mixAdhoc    queryMix = iota // a never-repeated text, parsed and executed
	mixStanding                 // one of the standing queries, prepared once
	mixBatch                    // batchWidth never-repeated texts in one round
)

const triggers = 16 // standing queries with subscribers and a trigger leaf

var workloads = []*workload{
	{
		name:    "adhoc-cold",
		why:     "never-repeated query texts on an in-memory cluster: full bottomUp with the single-word kernel on every fragment, cache always misses, wire and store idle",
		clients: 2, queryOps: 480, selectOps: 32, updateOps: 2560, restartIters: 4, imageUpdates: 64,
		mix: mixAdhoc, cache: true,
		setup: setupFacade,
		assertBypass: func(m map[string][]float64) []string {
			return append(all(m, "cache_hit_ratio", "== 0", func(v float64) bool { return v == 0 }), visitedOnce(m)...)
		},
	},
	{
		name:    "standing-warm-tcp",
		why:     "64 standing programs over loopback TCP with every fragment a cache hit: framing, codecs, cache lookup and solve are all that is left, bottomUp does nothing",
		clients: 2, queryOps: 2400, selectOps: 32, updateOps: 1280, restartIters: 4, imageUpdates: 64,
		mix: mixStanding, cache: true, overTCP: true,
		setup: setupStandingWarmTCP,
		assertBypass: func(m map[string][]float64) []string {
			out := all(m, "steps_per_query", "== 0", func(v float64) bool { return v == 0 })
			out = append(out, all(m, "cache_hit_ratio", "== 1", func(v float64) bool { return v == 1 })...)
			return append(out, visitedOnce(m)...)
		},
	},
	{
		name:    "batch-wide",
		why:     "16 fresh queries per round (about 180 lanes, a 3-word kernel), one client, no cache: the multi-word arena path and per-round batch compile that adhoc-cold never takes",
		clients: 1, queryOps: 80, selectOps: 32, updateOps: 2560, restartIters: 4, imageUpdates: 64,
		mix:          mixBatch,
		setup:        setupFacade,
		assertBypass: visitedOnce,
	},
	{
		name:    "update-churn",
		why:     "a writer beside a reader on a durable deployment with 1024 subscriptions: spine patch, WAL append, delta push, re-solve and fan-out do the work, bottomUp almost none",
		clients: 2, selectOps: 32, updateOps: 1280, restartIters: 4, imageUpdates: 64, beside: true,
		mix: mixStanding, cache: true, durable: true,
		setup: setupFacade,
		assertBypass: func(m map[string][]float64) []string {
			return append(all(m, "cache_hit_ratio", ">= 0.9", func(v float64) bool { return v >= 0.9 }), visitedOnce(m)...)
		},
	},
	{
		name:    "restart",
		why:     "restore from a crash image and from a checkpointed image after 1000 updates: store open and replay and snapshot decode do all the work, the first answer is a cache hit",
		clients: 2, selectOps: 32, updateOps: 1280, restartIters: 7, imageUpdates: 1000, queriesFromRestarts: true,
		mix: mixStanding, cache: true, durable: true,
		setup: setupRestart,
		assertBypass: func(m map[string][]float64) []string {
			return all(m, "cache_hit_ratio", "== 1", func(v float64) bool { return v == 1 })
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// all checks one per-repetition series against a predicate and words the
// violations.
func all(m map[string][]float64, key, want string, ok func(float64) bool) []string {
	var out []string
	for rep, v := range m[key] {
		if !ok(v) {
			out = append(out, fmt.Sprintf("%s = %v in repetition %d, want %s", key, v, rep, want))
		}
	}
	return out
}

// visitedOnce is the paper's invariant: a ParBoX round visits no site
// twice.
func visitedOnce(m map[string][]float64) []string {
	return all(m, "visits_per_site_max", "== 1", func(v float64) bool { return v == 1 })
}

// base is the part of a set-up every workload shares: the document, its
// mirror, the standing queries with their trigger leaves, the update plan
// and the restart images.
type base struct {
	forest *frag.Forest
	assign frag.Assignment
	d      *deployment
}

func newBase(ctx context.Context, e *env, w *workload, subscribers int) (*base, error) {
	standing := triggers
	if w.overTCP {
		standing = e.sc.wireStanding
	}
	doc, err := buildDocument(e.seed, e.sc.nodesPerFragment)
	if err != nil {
		return nil, err
	}
	mdoc, err := buildDocument(e.seed, e.sc.nodesPerFragment)
	if err != nil {
		return nil, err
	}
	m := &mirror{doc: mdoc}
	sq, err := standingQueries(m, standing)
	if err != nil {
		return nil, err
	}
	plan, err := newUpdatePlanner(m, sq[:triggers])
	if err != nil {
		return nil, err
	}
	imgDir, err := e.tempDir("images")
	if err != nil {
		return nil, err
	}
	im, err := makeImages(ctx, e, imgDir, sq[:triggers], int(float64(w.imageUpdates)*e.sc.ops))
	if err != nil {
		return nil, fmt.Errorf("restart images: %w", err)
	}
	forest, assign, err := fragmentDocument(doc)
	if err != nil {
		return nil, err
	}
	return &base{forest: forest, assign: assign, d: &deployment{
		mirror: m, plan: plan, sq: sq, images: im,
		flips: newFlipWaiter(triggers, subscribers),
	}}, nil
}

// onFacade points a deployment's shared operations at a facade system.
func (b *base) onFacade(ctx context.Context, sys *parbox.System) (*facade, error) {
	f := &facade{sys: sys}
	d := b.d
	d.close = f.close
	d.selection = f.selection
	d.update = f.update
	d.standing = func(ctx context.Context, k int) (outcome, error) { return f.exec(ctx, d.sq[k].q) }
	if err := f.attach(ctx, d.sq, triggers, d.flips); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// answersMatch compares op answers with parbox.EvaluateLocal on the mirror.
func answersMatch(m *mirror, srcs []string, got []bool) error {
	if len(got) != len(srcs) {
		return fmt.Errorf("%d answers for %d queries", len(got), len(srcs))
	}
	for i, src := range srcs {
		q, err := parbox.Prepare(src)
		if err != nil {
			return err
		}
		want, err := parbox.EvaluateLocal(m.doc.root, q)
		if err != nil {
			return err
		}
		if got[i] != want {
			return fmt.Errorf("%s answers %v, the mirror %v", src, got[i], want)
		}
	}
	return nil
}

// kernelWords is the word count and lane count of the kernel a round over
// these queries compiles to.
func kernelWords(srcs []string) (words, lanes int, err error) {
	prog, _, err := compile(srcs)
	if err != nil {
		return 0, 0, err
	}
	return prog.Kernel().Words(), prog.QListSize(), nil
}

const batchWidth = 16

// width is how many query texts one query op of the workload's mix takes.
func (w *workload) width() int {
	if w.mix == mixBatch {
		return batchWidth
	}
	return 1
}

// facadeOptions are the Deploy options the workload's flags stand for. The
// set-up below and the traced pass both deploy with them.
func facadeOptions(e *env, w *workload) ([]parbox.Option, error) {
	var opts []parbox.Option
	if w.cache {
		opts = append(opts, parbox.WithTripletCache())
	}
	if w.durable {
		// WithDurability without WithSyncWrites: WAL records are appended
		// with no fsync per write, the deployment default.
		dir, err := e.tempDir("durable")
		if err != nil {
			return nil, err
		}
		opts = append(opts, parbox.WithDurability(dir))
	}
	return opts, nil
}

// setupFacade deploys through parbox.Deploy and points the query phase at
// the workload's mix.
func setupFacade(ctx context.Context, e *env, w *workload) (*deployment, error) {
	b, err := newBase(ctx, e, w, subscribersPerQuery)
	if err != nil {
		return nil, err
	}
	opts, err := facadeOptions(e, w)
	if err != nil {
		return nil, err
	}
	sys, err := parbox.Deploy(b.forest, b.assign, opts...)
	if err != nil {
		return nil, err
	}
	f, err := b.onFacade(ctx, sys)
	if err != nil {
		return nil, err
	}
	d := b.d
	if w.mix == mixStanding {
		// One reader op is one pass over the 16 standing queries. A single
		// Exec here is bimodal — about one in twenty runs into a collection
		// the writer's garbage set off — which puts its p95 on the knee
		// between the modes; a pass averages over that.
		d.query = func(ctx context.Context, _ int) (outcome, error) {
			var pass outcome
			for _, sq := range d.sq {
				out, err := f.exec(ctx, sq.q)
				if err != nil {
					return outcome{}, err
				}
				pass.add(out)
			}
			return pass, nil
		}
		return d, nil
	}
	// Never-repeated texts, width of them fused into each round.
	width := w.width()
	stream := newQueryStream(e.seed+3, readVocabulary(d.mirror.doc.root))
	var texts []string
	d.prepare = func(n int) { texts = stream.take(n * width) }
	d.query = func(ctx context.Context, i int) (outcome, error) {
		qs := make([]*parbox.Prepared, width)
		for j := range qs {
			q, err := parbox.Prepare(texts[i*width+j])
			if err != nil {
				return outcome{}, err
			}
			qs[j] = q
		}
		return f.execRound(ctx, qs)
	}
	d.check = func(i int, got outcome) error {
		srcs := texts[i*width : (i+1)*width]
		words, _, err := kernelWords(srcs)
		if err != nil || (words > 1) != (width > 1) {
			return fmt.Errorf("a round of %d queries compiled to a %d-word kernel (%v)", width, words, err)
		}
		return answersMatch(d.mirror, srcs, got.answers)
	}
	return d, nil
}

func setupRestart(ctx context.Context, e *env, w *workload) (*deployment, error) {
	b, err := newBase(ctx, e, w, subscribersPerQuery)
	if err != nil {
		return nil, err
	}
	// The selections and updates of this workload run on a system that was
	// itself restored from the checkpointed image. The images absorbed
	// whole update cycles, so the restored document differs from the
	// mirror only in text no query of the benchmark reads; the forest
	// built above is not deployed.
	dir, err := e.tempDir("restored")
	if err != nil {
		return nil, err
	}
	if _, err := copyTree(b.d.images.checkpoint, dir); err != nil {
		return nil, err
	}
	sys, err := parbox.Restore(dir, parbox.WithTripletCache())
	if err != nil {
		return nil, err
	}
	if _, err := b.onFacade(ctx, sys); err != nil {
		return nil, err
	}
	return b.d, nil
}

func setupStandingWarmTCP(ctx context.Context, e *env, w *workload) (*deployment, error) {
	b, err := newBase(ctx, e, w, 1)
	if err != nil {
		return nil, err
	}
	net, err := deployWire(b.forest, b.assign, nil)
	if err != nil {
		return nil, err
	}
	d := b.d
	d.close = net.close
	if err := net.attach(ctx, d.sq, triggers, d.flips); err != nil {
		net.close()
		return nil, err
	}
	d.selection = net.selection
	d.update = net.update
	d.standing = net.standing
	d.query = func(ctx context.Context, i int) (outcome, error) { return net.standing(ctx, i%len(d.sq)) }
	d.check = func(i int, got outcome) error {
		k := i % len(d.sq)
		return answersMatch(d.mirror, []string{d.sq[k].src}, got.answers)
	}
	return d, nil
}
