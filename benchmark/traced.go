package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	parbox "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The traced pass measures the layers from outside, three ways:
//
//  1. spans around the facade calls themselves (parbox.*);
//  2. the same ops replayed against a twin the benchmark assembles from
//     the layers' public constructors, with a span-recording transport
//     under the engine and span-recording handlers at the sites
//     (core.*, cluster.*, views.*);
//  3. stage functions called directly on the op's own inputs
//     (xpath.*, eval.*, store.*, xmltree.*).
//
// One client, one repetition. End-to-end numbers never come from here.

// twin is the benchmark-assembled engine-level deployment of a workload:
// in-memory or over loopback TCP as the workload is, with or without the
// triplet cache and a durable store as the workload is.
type twin struct {
	eng     *core.Engine // through the span-recording transport
	raw     *core.Engine // straight to the transport: the untraced path
	plain   cluster.Transport
	sites   []*cluster.Site
	sheds   func() int64
	closers []func() error
}

func (tw *twin) close() error {
	var first error
	for _, c := range tw.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var tracedKinds = []string{core.KindEvalQual, views.KindApplyUpdate}

func deployTwin(w *workload, forest *frag.Forest, assign frag.Assignment, storeDir string, rec *recorder) (*twin, error) {
	tw := &twin{}
	cost := cluster.DefaultCostModel()
	var coord frag.SiteID
	var st *frag.SourceTree
	if w.overTCP {
		var sites []*cluster.Site
		net, err := deployWire(forest, assign, func(site *cluster.Site) {
			wrapHandlers(site, rec, tracedKinds...)
			sites = append(sites, site)
		})
		if err != nil {
			return nil, err
		}
		tw.closers = append(tw.closers, net.close)
		tw.plain, tw.sites, coord, st = net.coordTr, sites, coordinator, net.eng.SourceTree()
		tw.sheds = net.coordTr.Metrics().TotalSheds
	} else {
		c := cluster.New(cost)
		eng, err := core.Deploy(c, forest, assign)
		if err != nil {
			return nil, err
		}
		coord, st = eng.Coordinator(), eng.SourceTree()
		for _, id := range st.Sites() {
			site, _ := c.Site(id)
			views.RegisterHandlers(site, c)
			wrapHandlers(site, rec, tracedKinds...)
			tw.sites = append(tw.sites, site)
			if w.durable {
				fs, err := store.Open(filepath.Join(storeDir, string(id)), store.Options{})
				if err != nil {
					tw.close()
					return nil, err
				}
				tw.closers = append(tw.closers, fs.Close)
				for _, fid := range site.FragmentIDs() {
					fr, _ := site.Fragment(fid)
					if err := fs.PutFragment(fr, site.FragmentVersion(fid)); err != nil {
						tw.close()
						return nil, err
					}
				}
				if err := fs.Checkpoint(); err != nil {
					tw.close()
					return nil, err
				}
				site.AttachStore(fs, 0)
			}
		}
		tw.plain = c
		tw.sheds = c.Metrics().TotalSheds
	}
	tw.raw = core.NewEngine(tw.plain, coord, st, cost)
	tw.eng = core.NewEngine(&spanTransport{inner: tw.plain, rec: rec}, coord, st, cost)
	tw.raw.EnableTripletCache(w.cache)
	tw.eng.EnableTripletCache(w.cache)
	return tw, nil
}

// tracedPass holds what the traced pass of one workload builds and the
// samples it collects, keyed by metric name.
type tracedPass struct {
	w   *workload
	e   *env
	t   *tally
	rec *recorder

	m      *mirror
	sq     []*standingQuery
	plan   *updatePlanner
	flips  *flipWaiter
	images *images
	texts  *queryStream

	f       *facade
	tw      *twin
	stage   *frag.Forest // a private forest the stage functions run on
	stageST *frag.SourceTree

	samples map[string][]float64
	values  map[string]float64
}

func (p *tracedPass) add(name string, v float64) { p.samples[name] = append(p.samples[name], v) }
func (p *tracedPass) addDur(name string, d time.Duration) {
	p.add(name, float64(d)/float64(time.Microsecond))
}
func (p *tracedPass) set(name string, v float64) { p.values[name] = v }

func (p *tracedPass) close() {
	if p.f != nil {
		if err := p.f.close(); err != nil {
			p.t.fail("close facade: %v", err)
		}
	}
	if p.tw != nil {
		if err := p.tw.close(); err != nil {
			p.t.fail("close twin: %v", err)
		}
	}
}

// build assembles the facade system, the twin and the stage forest, each
// from its own copy of the seed's document.
func (p *tracedPass) build(ctx context.Context) error {
	w, e := p.w, p.e
	b, err := newBase(ctx, e, w, subscribersPerQuery)
	if err != nil {
		return err
	}
	p.m, p.sq, p.plan, p.flips, p.images = b.d.mirror, b.d.sq, b.d.plan, b.d.flips, b.d.images
	p.texts = newQueryStream(e.seed+3, readVocabulary(p.m.doc.root))

	forestOf := func() (*frag.Forest, frag.Assignment, error) {
		doc, err := buildDocument(e.seed, e.sc.nodesPerFragment)
		if err != nil {
			return nil, nil, err
		}
		return fragmentDocument(doc)
	}

	// The facade system, on the base's forest.
	forest, assign := b.forest, b.assign
	opts, err := facadeOptions(e, w)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sys, err := parbox.Deploy(forest, assign, opts...)
	if err != nil {
		return err
	}
	p.set("parbox.deploy_ms", float64(time.Since(t0))/float64(time.Millisecond))
	p.f = &facade{sys: sys}
	if err := p.f.attach(ctx, p.sq, triggers, p.flips); err != nil {
		return err
	}

	// The twin.
	if forest, assign, err = forestOf(); err != nil {
		return err
	}
	storeDir, err := e.tempDir("twin-store")
	if err != nil {
		return err
	}
	if p.tw, err = deployTwin(w, forest, assign, storeDir, p.rec); err != nil {
		return err
	}

	// The stage forest.
	if p.stage, assign, err = forestOf(); err != nil {
		return err
	}
	p.stageST, err = frag.BuildSourceTree(p.stage, assign)
	return err
}

// sources returns the query texts of query op i.
func (p *tracedPass) sources(i int) []string {
	if p.w.mix == mixStanding {
		return []string{p.sq[i%len(p.sq)].src}
	}
	return p.texts.take(p.w.width())
}

func parseAll(srcs []string) ([]xpath.Expr, error) {
	exprs := make([]xpath.Expr, len(srcs))
	for i, src := range srcs {
		e, err := xpath.Parse(src)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	return exprs, nil
}

// compileRound compiles one op's queries the way a round does: one query
// alone, several fused into one batch program.
func compileRound(exprs []xpath.Expr) (*xpath.Program, []int32) {
	if len(exprs) == 1 {
		prog := xpath.Compile(exprs[0])
		return prog, []int32{int32(prog.Root())}
	}
	return xpath.CompileBatch(exprs)
}

func compile(srcs []string) (*xpath.Program, []int32, error) {
	exprs, err := parseAll(srcs)
	if err != nil {
		return nil, nil, err
	}
	prog, roots := compileRound(exprs)
	return prog, roots, nil
}

// opRecord is what the three replays of one query op leave behind for the
// cross-replay metrics.
type opRecord struct {
	srcs     []string
	lanes    int
	missed   bool
	exec     time.Duration
	round    time.Duration
	traced   bool
	handlers map[string]time.Duration // handler span per site, twin replay
	stage    map[string]time.Duration // decode+bottomUp+encode per site, stage replay
	decode   time.Duration
	coord    time.Duration // program encode + triplet decodes + solve
}

// facadeQueries is replay 1: the ops through parbox.Prepare and Exec.
func (p *tracedPass) facadeQueries(ctx context.Context, ops []*opRecord) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var total outcome
	var execs []time.Duration
	for i, op := range ops {
		qs := make([]*parbox.Prepared, len(op.srcs))
		var err error
		for j, src := range op.srcs {
			if p.w.mix == mixStanding {
				qs[j] = p.sq[i%len(p.sq)].q
			} else if qs[j], err = parbox.Prepare(src); err != nil {
				break
			}
		}
		if err != nil {
			p.t.fail("traced op %d: %v", i, err)
			continue
		}
		t0 := time.Now()
		out, err := p.f.execRound(ctx, qs)
		op.exec = time.Since(t0)
		if err == nil {
			err = answersMatch(p.m, op.srcs, out.answers)
		}
		if err != nil {
			p.t.fail("traced op %d: %v", i, err)
			continue
		}
		p.t.ok()
		op.missed = out.misses > 0 || !p.w.cache
		execs = append(execs, op.exec)
		total.add(out)
		n := float64(len(out.answers))
		p.addDur("parbox.exec_us", op.exec)
		p.add("eval.solve_work_per_query", float64(out.solveWork)/n)
		p.add("cluster.messages_per_query", float64(out.messages)/n)
		p.add("cluster.bytes_per_query", float64(out.bytes)/n)
		p.add("paper.bytes_per_qlist_fragment", float64(out.bytes)/float64(op.lanes*sites))
	}
	runtime.ReadMemStats(&after)
	n := float64(len(ops))
	p.set("parbox.exec_ms_p99", percentile(execs, 99))
	p.set("parbox.allocs_per_op", float64(after.Mallocs-before.Mallocs)/n)
	p.set("parbox.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	p.set("eval.steps_per_query", float64(total.steps)/float64(len(total.answers)))
	ratio := 0.0
	if total.hits+total.misses > 0 {
		ratio = float64(total.hits) / float64(total.hits+total.misses)
	}
	p.set("core.cache_hit_ratio", ratio)
	p.set("core.visits_per_site_max", float64(total.maxVisits))
	p.set("core.retries_per_1k_ops", 1000*float64(total.retries)/n)
}

// twinQueries is replay 2: the same ops as engine rounds on the twin.
// Even ops go through the span-recording transport with the recorder on;
// odd ops take the plain transport with it off, which is what the traced
// ones are compared with for trace.overhead_share.
func (p *tracedPass) twinQueries(ctx context.Context, ops []*opRecord) {
	var tracedRounds, plainRounds []time.Duration
	for i, op := range ops {
		prog, roots, err := compile(op.srcs)
		if err != nil {
			p.t.fail("traced op %d on the twin: %v", i, err)
			continue
		}
		op.traced = i%2 == 0
		eng := p.tw.raw
		var root int
		if op.traced {
			eng = p.tw.eng
			p.rec.on.Store(true)
			root = p.rec.beginOp("round")
		}
		t0 := time.Now()
		var answers []bool
		if len(op.srcs) > 1 {
			var rep core.BatchReport
			rep, err = eng.ParBoXBatch(ctx, prog, roots)
			answers = rep.Answers
		} else {
			var rep core.Report
			rep, err = eng.ParBoX(ctx, prog)
			answers = []bool{rep.Answer}
		}
		op.round = time.Since(t0)
		if op.traced {
			p.rec.end(root)
			p.rec.on.Store(false)
		}
		if err == nil {
			err = answersMatch(p.m, op.srcs, answers)
		}
		if err != nil {
			p.t.fail("traced op %d on the twin: %v", i, err)
			continue
		}
		p.t.ok()
		if !op.traced {
			plainRounds = append(plainRounds, op.round)
			continue
		}
		tracedRounds = append(tracedRounds, op.round)
		f := fold(p.rec.opSpans(root))
		p.addDur("core.round_us", f.root)
		p.addDur("core.round_self_us", f.rootSelf)
		p.add("cluster.slowest_call_share", f.slowestCallShare)
		p.add("cluster.calls_per_query", float64(len(f.calls))/float64(len(op.srcs)))
		for _, d := range f.calls {
			p.addDur("cluster.call_us", d)
		}
		for _, d := range f.callSelf {
			p.addDur("cluster.call_self_us", d)
		}
		op.handlers = map[string]time.Duration{}
		for j, d := range f.handlers {
			p.addDur("core.handler_evalqual_us", d)
			op.handlers[f.handlerSites[j]] = d
		}
	}
	tm, pm := medianDur(tracedRounds), medianDur(plainRounds)
	if pm > 0 {
		p.set("trace.overhead_share", tm/pm-1)
	}
	p.set("cluster.sheds", float64(p.tw.sheds()))
}

// stageQueries is replay 3: the stage functions of a round, called
// directly on the op's own program and the stage forest's fragments.
func (p *tracedPass) stageQueries(ops []*opRecord) {
	for i, op := range ops {
		t0 := time.Now()
		for _, src := range op.srcs {
			if _, err := parbox.Prepare(src); err != nil {
				p.t.fail("stage op %d: %v", i, err)
			}
		}
		p.addDur("parbox.prepare_us", time.Since(t0)/time.Duration(len(op.srcs)))
		t0 = time.Now()
		exprs, err := parseAll(op.srcs)
		if err != nil {
			p.t.fail("stage op %d: %v", i, err)
			continue
		}
		t1 := time.Now()
		prog, roots := compileRound(exprs)
		t2 := time.Now()
		k := xpath.CompileKernel(prog)
		t3 := time.Now()
		p.addDur("xpath.parse_us", t1.Sub(t0)/time.Duration(len(op.srcs)))
		p.addDur("xpath.compile_us", t2.Sub(t1))
		p.addDur("xpath.kernel_compile_us", t3.Sub(t2))
		p.add("xpath.lanes_per_round", float64(prog.QListSize()))
		switch {
		case p.w.mix == mixBatch && k.Words() < 2:
			p.t.fail("stage op %d: a batch-wide round compiled to a %d-word kernel", i, k.Words())
		case p.w.mix != mixBatch && k.Words() != 1:
			p.t.fail("stage op %d: a single-query round compiled to a %d-word kernel", i, k.Words())
		}

		t0 = time.Now()
		enc := prog.Encode()
		t1 = time.Now()
		if _, err := xpath.DecodeProgram(enc); err != nil {
			p.t.fail("stage op %d: program codec: %v", i, err)
			continue
		}
		t2 = time.Now()
		op.decode = t2.Sub(t1)
		op.coord = t1.Sub(t0)
		p.addDur("xpath.program_codec_us", t2.Sub(t0))
		p.add("xpath.program_bytes", float64(len(enc)))

		triplets := make(map[xmltree.FragmentID]eval.Triplet, sites)
		op.stage = map[string]time.Duration{}
		var steps int64
		for _, id := range p.stage.IDs() {
			fr, _ := p.stage.Fragment(id)
			b0 := time.Now()
			tr, s, err := eval.BottomUp(fr.Root, prog)
			b1 := time.Now()
			if err != nil {
				p.t.fail("stage op %d: bottomUp on fragment %d: %v", i, id, err)
				continue
			}
			tenc := tr.Encode()
			b2 := time.Now()
			if _, err := eval.DecodeTriplet(tenc); err != nil {
				p.t.fail("stage op %d: triplet codec: %v", i, err)
				continue
			}
			b3 := time.Now()
			triplets[id] = tr
			steps += s
			p.addDur("eval.bottomup_us_per_fragment", b1.Sub(b0))
			p.add("eval.bottomup_ns_per_lane_node", float64(b1.Sub(b0))/float64(prog.QListSize()*fr.Size()))
			p.addDur("eval.triplet_codec_us", b3.Sub(b1))
			p.add("eval.triplet_bytes", float64(len(tenc)))
			site, _ := p.stageST.Site(id)
			op.stage[string(site)] = op.decode + b2.Sub(b0)
			op.coord += b3.Sub(b2)
		}
		s0 := time.Now()
		if len(roots) > 1 {
			_, _, err = eval.SolveMulti(p.stageST, triplets, prog, roots)
		} else {
			_, _, err = eval.Solve(p.stageST, triplets, prog)
		}
		solve := time.Since(s0)
		if err != nil {
			p.t.fail("stage op %d: solve: %v", i, err)
			continue
		}
		op.coord += solve
		p.addDur("eval.solve_us", solve)
		p.add("paper.steps_per_qlist_node", float64(steps)/float64(prog.QListSize()*p.stage.TotalSize()))
		p.t.ok()
	}
}

// crossReplay derives the metrics that need two replays of the same op.
func (p *tracedPass) crossReplay(ops []*opRecord) {
	for _, op := range ops {
		if op.exec > 0 && op.round > 0 {
			p.addDur("parbox.exec_self_us", op.exec-op.round)
		}
		if !op.traced || op.stage == nil {
			continue
		}
		for site, h := range op.handlers {
			replay := op.decode
			if op.missed {
				replay = op.stage[site]
			}
			p.addDur("core.handler_self_us", h-replay)
		}
	}
	// What the containers hold beyond their named stages, over what a
	// caller waits: see README.md, "unattributed".
	var coord []time.Duration
	for _, op := range ops {
		if op.stage != nil {
			coord = append(coord, op.coord)
		}
	}
	un := median(p.samples["core.round_self_us"]) - medianDur(coord) + median(p.samples["core.handler_self_us"])
	wall := median(p.samples["core.round_us"])
	if !p.w.overTCP {
		// The facade system and the twin share a transport kind, so Exec
		// is the op a caller waits for and the round is inside it. Over
		// TCP the workload's op is the round itself; its facade system is
		// an in-memory reference.
		un += median(p.samples["parbox.exec_self_us"])
		wall = median(p.samples["parbox.exec_us"])
	}
	if wall > 0 {
		p.set("trace.unattributed_share", un/wall)
	}
}

// selections times eval.SelectFragment on the stage forest's leaf
// fragments, each taken as a document of its own.
func (p *tracedPass) selections() {
	for _, src := range selectionSources() {
		sp, err := xpath.CompileSelectString(src)
		if err != nil {
			p.t.fail("stage selection %q: %v", src, err)
			continue
		}
		for _, id := range p.stage.IDs() {
			fr, _ := p.stage.Fragment(id)
			if len(fr.SubFragments()) > 0 {
				continue
			}
			t0 := time.Now()
			if _, err := eval.SelectFragment(fr.Root, sp, nil, eval.StartArrival()); err != nil {
				p.t.fail("stage selection %q on fragment %d: %v", src, id, err)
				continue
			}
			p.addDur("eval.select_fragment_us", time.Since(t0))
			p.t.ok()
		}
	}
}

// updates drives n planned updates through the facade view and the twin's
// view, and patches a retained plane directly for the stage numbers.
func (p *tracedPass) updates(ctx context.Context, n int) {
	st := p.tw.raw.SourceTree()
	vprog, err := xpath.CompileString(viewQuery)
	if err != nil {
		p.t.fail("traced updates: %v", err)
		return
	}
	t0 := time.Now()
	view, err := views.Materialize(ctx, p.tw.plain, p.tw.raw.Coordinator(), st, vprog)
	if err != nil {
		p.t.fail("traced updates: materialize on the twin: %v", err)
		return
	}
	p.set("views.materialize_ms", float64(time.Since(t0))/float64(time.Millisecond))
	view.SetTransport(&spanTransport{inner: p.tw.plain, rec: p.rec})
	// Standing programs at the twin's sites, so its updates push deltas
	// as the facade's do.
	for k := 0; k < triggers; k++ {
		prog, err := xpath.CompileString(p.sq[k].src)
		if err != nil {
			p.t.fail("traced updates: %v", err)
			return
		}
		for _, siteID := range st.Sites() {
			if _, err := views.RegisterProg(ctx, p.tw.plain, p.tw.raw.Coordinator(), siteID, prog, st.FragmentsAt(siteID)); err != nil {
				p.t.fail("traced updates: register standing %d at %s: %v", k, siteID, err)
				return
			}
		}
	}
	// One observer per site, so a flip's delta has somewhere to go and
	// crosses the twin's transport as the facade's does.
	if ds, ok := p.tw.plain.(cluster.DeltaSubscriber); ok {
		for _, siteID := range st.Sites() {
			cancel, err := ds.SubscribeDeltas(ctx, p.tw.raw.Coordinator(), siteID, func([]byte) {})
			if err != nil {
				p.t.fail("traced updates: subscribe deltas at %s: %v", siteID, err)
				return
			}
			defer cancel()
		}
	}
	statsOf := func() (spine, full, noop, deltas uint64) {
		for _, site := range p.tw.sites {
			s := site.Stats().Snapshot()
			spine += s.SpineRecomputes
			full += s.FullRecomputes
			noop += s.NoopUpdates
			deltas += s.DeltasPushed
		}
		return
	}
	spine0, full0, noop0, deltas0 := statsOf()

	for j := 0; j < n; j++ {
		u := p.plan.next()
		if u.flips >= 0 {
			p.flips.arm(u.flips)
		}
		err := p.f.update(ctx, u.frag, u.ops)
		f1 := time.Now()
		if err != nil {
			p.t.fail("traced update %d on the facade: %v", j, err)
			continue
		}
		if u.flips >= 0 {
			at, ok, stray := p.flips.wait(u.flips, notifyTimeout)
			if !ok || stray != 0 {
				p.t.fail("traced update %d: notification of standing query %d (delivered %v, stray %d)", j, u.flips, ok, stray)
			} else {
				p.addDur("parbox.notify_dispatch_us", at.Sub(f1))
			}
		}

		p.rec.on.Store(true)
		root := p.rec.beginOp("update")
		_, err = view.Update(ctx, u.frag, u.ops)
		p.rec.end(root)
		p.rec.on.Store(false)
		if err != nil {
			p.t.fail("traced update %d on the twin: %v", j, err)
			continue
		}
		f := fold(p.rec.opSpans(root))
		p.addDur("views.update_us", f.root)
		p.addDur("views.update_self_us", f.rootSelf)
		for _, d := range f.handlers {
			p.addDur("views.handler_apply_us", d)
		}
		if err := p.m.apply(u.frag, u.ops); err != nil {
			p.t.fail("traced update %d on the mirror: %v", j, err)
		}
		p.t.ok()
	}
	spine1, full1, noop1, deltas1 := statsOf()
	// Each maintained program of an updated fragment is recomputed once,
	// by spine patch or in full, and counted a no-op when its root
	// formulas came out unchanged.
	if rec := float64(spine1-spine0) + float64(full1-full0); rec > 0 {
		p.set("views.spine_share", float64(spine1-spine0)/rec)
		p.set("views.noop_share", float64(noop1-noop0)/rec)
	}
	p.set("views.deltas_pushed_per_update", float64(deltas1-deltas0)/float64(n))

	// Stage: build and patch the plane of each trigger's program on its
	// fragment, flipping the trigger leaf and back.
	for k := 0; k < triggers; k++ {
		sq := p.sq[k]
		prog, err := xpath.CompileString(sq.src)
		if err != nil {
			continue
		}
		fr, _ := p.stage.Fragment(sq.frag)
		b0 := time.Now()
		plane, _, ok := eval.BuildPlane(fr.Root, prog)
		if !ok {
			p.t.fail("stage plane: fragment %d is outside the spine kernel's domain", sq.frag)
			continue
		}
		p.addDur("eval.plane_build_us", time.Since(b0))
		leaf, err := views.NodeAt(fr.Root, sq.path)
		if err != nil {
			p.t.fail("stage plane: %v", err)
			continue
		}
		for _, text := range []string{sq.token, sq.original} {
			leaf.Text = text
			p0 := time.Now()
			if _, ok := plane.Patch(nil, []*xmltree.Node{leaf}, nil); !ok {
				p.t.fail("stage plane: patch fell out of the spine kernel's domain")
				break
			}
			p.addDur("eval.plane_patch_us", time.Since(p0))
		}
		p.t.ok()
	}
}

// subscriptions times a first Subscribe of a query (a baseline round) and
// a second one of the same query (deduplicated onto the first's state).
func (p *tracedPass) subscriptions(ctx context.Context) {
	for k := 0; k < 8; k++ {
		src := fmt.Sprintf(`//person[emailaddress = "subscribe-%d"]`, k)
		q, err := parbox.Prepare(src)
		if err != nil {
			p.t.fail("traced subscribe: %v", err)
			return
		}
		t0 := time.Now()
		first, err := p.f.sys.Subscribe(ctx, q)
		t1 := time.Now()
		if err != nil {
			p.t.fail("traced subscribe: %v", err)
			return
		}
		second, err := p.f.sys.Subscribe(ctx, q)
		t2 := time.Now()
		if err != nil {
			first.Cancel()
			p.t.fail("traced subscribe: %v", err)
			return
		}
		p.add("parbox.subscribe_new_ms", float64(t1.Sub(t0))/float64(time.Millisecond))
		p.addDur("parbox.subscribe_dedup_us", t2.Sub(t1))
		first.Cancel()
		second.Cancel()
		p.t.ok()
	}
}

// interleaved runs pairs of Execs of the workload's query mix that differ
// in one option, alternating which goes first, and returns both medians in
// microseconds.
func (p *tracedPass) interleaved(ctx context.Context, pairs int, a, b []parbox.ExecOption) (ma, mb float64) {
	var da, db []time.Duration
	one := func(i int, opts []parbox.ExecOption) (time.Duration, error) {
		var q *parbox.Prepared
		if p.w.mix == mixStanding {
			q = p.sq[i%len(p.sq)].q
		} else {
			var err error
			if q, err = parbox.Prepare(p.texts.next()); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		_, err := p.f.sys.Exec(ctx, q, opts...)
		return time.Since(t0), err
	}
	for i := 0; i < pairs; i++ {
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		d1, err1 := one(i, first)
		d2, err2 := one(i, second)
		if err1 != nil || err2 != nil {
			p.t.fail("interleaved exec %d: %v %v", i, err1, err2)
			continue
		}
		p.t.ok()
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		da = append(da, d1)
		db = append(db, d2)
	}
	return medianDur(da), medianDur(db)
}

// restarts times Restore, the first answer and Close on both images, and
// the store and tree-codec stage functions on the stage forest.
func (p *tracedPass) restarts(ctx context.Context, iters int) {
	for i := 0; i < 2*iters; i++ {
		src := p.images.checkpoint
		if i%2 == 0 {
			src = p.images.crash
		}
		dir, err := p.e.tempDir("restart")
		if err == nil {
			_, err = copyTree(src, dir)
		}
		if err != nil {
			p.t.fail("traced restart: %v", err)
			continue
		}
		t0 := time.Now()
		sys, err := parbox.Restore(dir, parbox.WithTripletCache())
		t1 := time.Now()
		if err != nil {
			p.t.fail("traced restart: %v", err)
			os.RemoveAll(dir)
			continue
		}
		res, err := sys.Exec(ctx, p.sq[0].q)
		t2 := time.Now()
		if err != nil || res.Answer != p.images.answers[0] {
			p.t.fail("traced restart: first answer: %v", err)
		} else {
			p.t.ok()
		}
		err = sys.Close()
		t3 := time.Now()
		if err != nil {
			p.t.fail("traced restart: close: %v", err)
		}
		os.RemoveAll(dir)
		p.add("parbox.restore_ms", float64(t1.Sub(t0))/float64(time.Millisecond))
		p.add("parbox.first_answer_ms", float64(t2.Sub(t1))/float64(time.Millisecond))
		p.add("parbox.close_ms", float64(t3.Sub(t2))/float64(time.Millisecond))
	}
	p.set("store.snapshot_bytes", float64(p.images.checkpointBytes))
	var wal int64
	filepath.Walk(p.images.crash, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".wal") {
			wal += info.Size()
		}
		return nil
	})
	p.set("store.wal_bytes", float64(wal))

	// One store per fragment, as a site has.
	for _, id := range p.stage.IDs() {
		fr, _ := p.stage.Fragment(id)
		dir, err := p.e.tempDir("stage-store")
		if err != nil {
			p.t.fail("stage store: %v", err)
			return
		}
		fs, err := store.Open(dir, store.Options{})
		if err != nil {
			p.t.fail("stage store: %v", err)
			return
		}
		for v := uint64(1); v <= 4; v++ {
			before := fs.Stats().WALBytes
			t0 := time.Now()
			err := fs.PutFragment(fr, v)
			p.addDur("store.put_fragment_us", time.Since(t0))
			if err != nil {
				p.t.fail("stage store: put: %v", err)
			}
			p.add("store.wal_bytes_per_update", float64(fs.Stats().WALBytes-before))
		}
		t0 := time.Now()
		err = fs.Checkpoint()
		p.add("store.checkpoint_ms", float64(time.Since(t0))/float64(time.Millisecond))
		if err == nil {
			err = fs.Close()
		}
		if err != nil {
			p.t.fail("stage store: checkpoint and close: %v", err)
			continue
		}
		t0 = time.Now()
		fs, err = store.Open(dir, store.Options{})
		p.add("store.open_ms_per_site", float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			p.t.fail("stage store: reopen: %v", err)
			continue
		}
		t0 = time.Now()
		_, _, ok, err := fs.LoadFragment(id)
		p.addDur("store.load_fragment_us", time.Since(t0))
		if err != nil || !ok {
			p.t.fail("stage store: load fragment %d: %v", id, err)
		}
		fs.Close()
		os.RemoveAll(dir)

		t0 = time.Now()
		enc := xmltree.Encode(fr.Root)
		_, err = xmltree.Decode(enc)
		d := time.Since(t0)
		if err != nil {
			p.t.fail("stage tree codec: %v", err)
			continue
		}
		p.add("xmltree.codec_us_per_knode", float64(d)/float64(time.Microsecond)/(float64(fr.Size())/1000))
		p.t.ok()
	}
}

// tracedOps caps the traced pass: one client and three replays per op.
const tracedOps = 400

func runTraced(ctx context.Context, w *workload, e *env, seconds float64) *runResult {
	res := &runResult{Workload: w.name, Seed: e.seed, Seconds: seconds, Traced: true, Metrics: map[string]measure{}}
	started := time.Now()
	t := &tally{}
	res.Calibration[0] = calibrate()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	p := &tracedPass{w: w, e: e, t: t, rec: newRecorder(), samples: map[string][]float64{}, values: map[string]float64{}}
	defer p.close()
	if err := p.build(ctx); err != nil {
		t.fail("traced set-up: %v", err)
		return res.finish(t, started)
	}
	c := w.scaled(e.sc, seconds)
	n := c.query
	if w.beside || w.queriesFromRestarts {
		n = c.update // these workloads have no sized query phase of their own
	}
	if n > tracedOps {
		n = tracedOps
	}
	if w.mix == mixStanding {
		// Fill the caches first, as every untraced set-up does.
		for k := range p.sq {
			prog, _, err := compile([]string{p.sq[k].src})
			if err == nil {
				_, err = p.tw.raw.ParBoX(ctx, prog)
			}
			if err == nil {
				_, err = p.f.sys.Exec(ctx, p.sq[k].q)
			}
			if err != nil {
				t.fail("traced warm-up: %v", err)
			}
		}
	}
	ops := make([]*opRecord, n)
	for i := range ops {
		srcs := p.sources(i)
		_, lanes, err := kernelWords(srcs)
		if err != nil {
			t.fail("traced op %d: %v", i, err)
		}
		ops[i] = &opRecord{srcs: srcs, lanes: lanes}
	}
	runtime.GC()
	p.facadeQueries(ctx, ops)
	p.twinQueries(ctx, ops)
	stageN := len(ops)
	if stageN > 100 {
		stageN = 100
	}
	p.stageQueries(ops[:stageN])
	p.crossReplay(ops)
	p.selections()
	p.updates(ctx, 8*triggers)
	p.subscriptions(ctx)
	p.restarts(ctx, 3)

	co, solo := p.interleaved(ctx, 40, []parbox.ExecOption{parbox.WithCoalescing()}, []parbox.ExecOption{parbox.WithNoCoalesce()})
	p.set("parbox.scheduler_handoff_us", co-solo)
	if ss := p.f.sys.SchedulerStats(); ss.Queries > 0 {
		p.set("parbox.scheduler_rounds_per_query", float64(ss.Rounds)/float64(ss.Queries))
	}
	spans, plain := p.interleaved(ctx, 40, []parbox.ExecOption{parbox.WithSpans()}, nil)
	if plain > 0 {
		p.set("obs.spans_overhead_share", spans/plain-1)
	}

	runtime.ReadMemStats(&gc1)
	p.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	p.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/float64(time.Millisecond))
	res.Calibration[1] = calibrate()
	p.set("bench.calibration_ms", res.Calibration[0])

	for _, def := range perLayer {
		if vals, ok := p.samples[def.Name]; ok && len(vals) > 0 {
			res.Metrics[def.Name] = measureOf(vals, def.Unit)
		} else if v, ok := p.values[def.Name]; ok {
			res.Metrics[def.Name] = measureOf([]float64{v}, def.Unit)
		} else {
			t.fail("per-layer metric %s was not measured", def.Name)
		}
	}
	res.trace = p.rec.spans

	bypass := map[string][]float64{
		"steps_per_query":     {p.values["eval.steps_per_query"]},
		"cache_hit_ratio":     {p.values["core.cache_hit_ratio"]},
		"visits_per_site_max": {p.values["core.visits_per_site_max"]},
	}
	for _, msg := range w.assertBypass(bypass) {
		t.fail("bypass assertion: %s", msg)
	}
	return res.finish(t, started)
}
