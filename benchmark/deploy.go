package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	parbox "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/views"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// outcome is what one query op reports back to the runner.
type outcome struct {
	answers      []bool
	bytes        int64
	messages     int64
	hits, misses int64
	steps        int64 // bottomUp steps only (total − solve work)
	solveWork    int64
	retries      int64 // failovers and round retries
	maxVisits    int64 // most visits any one site received
}

// add folds another op's outcome into this one.
func (o *outcome) add(p outcome) {
	o.answers = append(o.answers, p.answers...)
	o.bytes += p.bytes
	o.messages += p.messages
	o.hits += p.hits
	o.misses += p.misses
	o.steps += p.steps
	o.solveWork += p.solveWork
	o.retries += p.retries
	if p.maxVisits > o.maxVisits {
		o.maxVisits = p.maxVisits
	}
}

func maxVisits(v map[frag.SiteID]int64) int64 {
	var m int64
	for _, n := range v {
		if n > m {
			m = n
		}
	}
	return m
}

// deployment is one system under test, reduced to the operations the
// phases drive. Every workload builds one in set-up.
type deployment struct {
	// prepare readies the inputs of the next n query ops, untimed.
	prepare func(n int)
	// query runs query op i of the prepared batch.
	query func(ctx context.Context, i int) (outcome, error)
	// check verifies op i's outcome against the mirror, untimed.
	check func(i int, got outcome) error

	// selection runs selection op i: the four XMark selection queries in
	// turn, ModeSelect on even i and ModeCount on odd i.
	selection func(ctx context.Context, i int) (int64, error)
	update    func(ctx context.Context, id xmltree.FragmentID, ops []parbox.UpdateOp) error
	// standing answers standing query k; its answers are checked against
	// the mirror at every repetition boundary.
	standing func(ctx context.Context, k int) (outcome, error)

	flips  *flipWaiter
	mirror *mirror
	plan   *updatePlanner
	sq     []*standingQuery
	images *images
	close  func() error
}

// flipWaiter lets the writer wait until every subscriber of one standing
// query holds the notification of a flipping update.
type flipWaiter struct {
	expect int // subscribers per standing query

	mu   sync.Mutex
	got  []int
	done []chan time.Time // done[k] receives the time the last subscriber was served
}

func newFlipWaiter(queries, expect int) *flipWaiter {
	w := &flipWaiter{expect: expect, got: make([]int, queries), done: make([]chan time.Time, queries)}
	for k := range w.done {
		w.done[k] = make(chan time.Time, 1)
	}
	return w
}

func (w *flipWaiter) arrived(k int) {
	now := time.Now()
	w.mu.Lock()
	w.got[k]++
	full := w.got[k] == w.expect
	if full {
		w.got[k] = 0
	}
	w.mu.Unlock()
	if full {
		select {
		case w.done[k] <- now:
		default:
		}
	}
}

// arm clears what an earlier, timed-out flip of query k may have left.
func (w *flipWaiter) arm(k int) {
	w.mu.Lock()
	w.got[k] = 0
	w.mu.Unlock()
	select {
	case <-w.done[k]:
	default:
	}
}

// wait returns when all subscribers of query k were served, or false
// after the timeout. stray reports notifications held for other queries:
// a flipping update must reach the subscribers of exactly one.
func (w *flipWaiter) wait(k int, timeout time.Duration) (at time.Time, ok bool, stray int) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case at = <-w.done[k]:
		ok = true
	case <-t.C:
	}
	w.mu.Lock()
	for j, n := range w.got {
		if j != k {
			stray += n
			w.got[j] = 0
		}
	}
	w.mu.Unlock()
	return at, ok, stray
}

const subscribersPerQuery = 64

// facade wraps a parbox.System deployed through the public API.
type facade struct {
	sys   *parbox.System
	view  *parbox.View
	sel   []*parbox.Prepared
	subs  []*parbox.Subscription
	sinks sync.WaitGroup
}

// viewQuery is the query the update path's view materializes.
var viewQuery = xmark.Queries[23]

// attach materializes the update view and parks subscribersPerQuery sink
// goroutines on each of the first triggers standing queries.
func (f *facade) attach(ctx context.Context, sq []*standingQuery, triggers int, flips *flipWaiter) error {
	for _, src := range selectionSources() {
		q, err := parbox.Prepare(src)
		if err != nil {
			return err
		}
		f.sel = append(f.sel, q)
	}
	vq, err := parbox.Prepare(viewQuery)
	if err != nil {
		return err
	}
	res, err := f.sys.Exec(ctx, vq, parbox.WithMode(parbox.ModeMaterialize))
	if err != nil {
		return fmt.Errorf("materialize: %w", err)
	}
	f.view = res.View
	for k := 0; k < triggers; k++ {
		for i := 0; i < subscribersPerQuery; i++ {
			sub, err := f.sys.Subscribe(ctx, sq[k].q)
			if err != nil {
				return fmt.Errorf("subscribe %d: %w", k, err)
			}
			f.subs = append(f.subs, sub)
			f.sinks.Add(1)
			go func(k int, sub *parbox.Subscription) {
				defer f.sinks.Done()
				for {
					select {
					case <-sub.C():
						flips.arrived(k)
					case <-sub.Done():
						return
					}
				}
			}(k, sub)
		}
	}
	return nil
}

func (f *facade) exec(ctx context.Context, q *parbox.Prepared, opts ...parbox.ExecOption) (outcome, error) {
	res, err := f.sys.Exec(ctx, q, opts...)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		bytes: res.Bytes, messages: res.Messages, hits: res.CacheHits, misses: res.CacheMisses,
		retries: res.Failovers, maxVisits: maxVisits(res.Visits),
	}
	switch {
	case res.Batch != nil:
		out.answers, out.solveWork = res.Answers, res.Batch.SolveWork
	case res.Boolean != nil:
		out.answers, out.solveWork = []bool{res.Answer}, res.Boolean.SolveWork
	}
	out.steps = res.TotalSteps - out.solveWork
	return out, nil
}

// execRound answers the queries in one round: one alone, several fused
// with WithBatch.
func (f *facade) execRound(ctx context.Context, qs []*parbox.Prepared) (outcome, error) {
	if len(qs) == 1 {
		return f.exec(ctx, qs[0])
	}
	return f.exec(ctx, qs[0], parbox.WithBatch(qs[1:]...))
}

func (f *facade) selection(ctx context.Context, i int) (int64, error) {
	mode := parbox.ModeSelect
	if i%2 == 1 {
		mode = parbox.ModeCount
	}
	res, err := f.sys.Exec(ctx, f.sel[(i/2)%len(f.sel)], parbox.WithMode(mode))
	if err != nil {
		return 0, err
	}
	return res.Matched, nil
}

func (f *facade) update(ctx context.Context, id xmltree.FragmentID, ops []parbox.UpdateOp) error {
	_, err := f.view.Update(ctx, id, ops)
	return err
}

func (f *facade) close() error {
	for _, sub := range f.subs {
		sub.Cancel()
	}
	err := f.sys.Close()
	f.sinks.Wait()
	return err
}

// wire is eight sites served by cluster.Serve on loopback and a pure
// coordinator that hosts no fragment, so every round crosses real sockets.
type wire struct {
	servers []*cluster.Server
	siteTrs []*cluster.TCPTransport
	coordTr *cluster.TCPTransport
	eng     *core.Engine
	view    *views.View
	progs   []*xpath.Program
	sel     []*xpath.SelectProgram
	cancels []func()
}

const coordinator = frag.SiteID("C")

// deployWire serves the forest's fragments from eight loopback sites.
// wrapSite, when set, lets the traced pass put its span recorders around
// the handlers before the site starts serving.
func deployWire(forest *frag.Forest, assign frag.Assignment, wrapSite func(*cluster.Site)) (*wire, error) {
	st, err := frag.BuildSourceTree(forest, assign)
	if err != nil {
		return nil, err
	}
	w := &wire{}
	addrs := make(map[frag.SiteID]string, sites)
	cost := cluster.DefaultCostModel()
	for i := 0; i < sites; i++ {
		id := siteName(i)
		site := cluster.NewSite(id)
		for _, fid := range st.FragmentsAt(id) {
			fr, ok := forest.Fragment(fid)
			if !ok {
				w.close()
				return nil, fmt.Errorf("missing fragment %d", fid)
			}
			site.AddFragment(fr)
		}
		siteTr := cluster.NewTCPTransport(nil)
		siteTr.Local(site)
		w.siteTrs = append(w.siteTrs, siteTr)
		core.RegisterHandlers(site, siteTr, cost)
		views.RegisterHandlers(site, siteTr)
		if wrapSite != nil {
			wrapSite(site)
		}
		srv, err := cluster.Serve(site, "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		w.servers = append(w.servers, srv)
		addrs[id] = srv.Addr()
	}
	w.coordTr = cluster.NewTCPTransport(addrs)
	w.eng = core.NewEngine(w.coordTr, coordinator, st, cost)
	w.eng.EnableTripletCache(true)
	return w, nil
}

// attach materializes the update view over the wire and subscribes the
// coordinator's connections to the sites' pushed deltas for the first
// triggers standing programs. The subscriber of a wire deployment is the
// coordinator itself: a flip counts as delivered when its delta arrived.
func (w *wire) attach(ctx context.Context, sq []*standingQuery, triggers int, flips *flipWaiter) error {
	for _, src := range selectionSources() {
		sp, err := xpath.CompileSelectString(src)
		if err != nil {
			return err
		}
		w.sel = append(w.sel, sp)
	}
	for _, s := range sq {
		prog, err := xpath.CompileString(s.src)
		if err != nil {
			return err
		}
		prog.Source = s.src
		w.progs = append(w.progs, prog)
	}
	st := w.eng.SourceTree()
	vprog, err := xpath.CompileString(viewQuery)
	if err != nil {
		return err
	}
	if w.view, err = views.Materialize(ctx, w.coordTr, coordinator, st, vprog); err != nil {
		return err
	}
	byFP := make(map[uint64]int, triggers)
	for k := 0; k < triggers; k++ {
		byFP[w.progs[k].Fingerprint()] = k
		for _, siteID := range st.Sites() {
			if _, err := views.RegisterProg(ctx, w.coordTr, coordinator, siteID, w.progs[k], st.FragmentsAt(siteID)); err != nil {
				return fmt.Errorf("register standing %d at %s: %w", k, siteID, err)
			}
		}
	}
	for _, siteID := range st.Sites() {
		cancel, err := w.coordTr.SubscribeDeltas(ctx, coordinator, siteID, func(payload []byte) {
			d, err := views.DecodeDelta(payload)
			if err != nil {
				return
			}
			if k, ok := byFP[d.FP]; ok {
				flips.arrived(k)
			}
		})
		if err != nil {
			return fmt.Errorf("subscribe deltas at %s: %w", siteID, err)
		}
		w.cancels = append(w.cancels, cancel)
	}
	return nil
}

func (w *wire) standing(ctx context.Context, k int) (outcome, error) {
	rep, err := w.eng.ParBoX(ctx, w.progs[k])
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		answers: []bool{rep.Answer}, bytes: rep.Bytes, hits: rep.CacheHits, misses: rep.CacheMisses,
		steps: rep.TotalSteps - rep.SolveWork, maxVisits: maxVisits(rep.Visits),
	}, nil
}

func (w *wire) selection(ctx context.Context, i int) (int64, error) {
	sp := w.sel[(i/2)%len(w.sel)]
	if i%2 == 1 {
		rep, err := w.eng.CountParBoX(ctx, sp)
		return rep.Count, err
	}
	rep, err := w.eng.SelectParBoX(ctx, sp)
	return int64(rep.Count), err
}

func (w *wire) update(ctx context.Context, id xmltree.FragmentID, ops []parbox.UpdateOp) error {
	_, err := w.view.Update(ctx, id, ops)
	return err
}

func (w *wire) close() error {
	for _, cancel := range w.cancels {
		cancel()
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if w.coordTr != nil {
		keep(w.coordTr.Close())
	}
	for _, srv := range w.servers {
		keep(srv.Close())
	}
	for _, tr := range w.siteTrs {
		keep(tr.Close())
	}
	return first
}

// images are the two durable states a restart begins from: a crash image
// (the data dir copied while the system was open: snapshot plus WAL tail)
// and a checkpointed image (copied after Close).
type images struct {
	crash, checkpoint string
	standing          []*standingQuery
	answers           []bool // the standing answers just before the crash copy
	checkpointBytes   int64
	documentBytes     int64 // xmltree.WriteXML size of the stored document
}

// makeImages deploys the seed's document durably beside the workload's own
// system, applies the given number of planned updates (rounded down to
// whole cycles of 8, so every trigger is back off), answers the standing
// queries, and takes both images.
func makeImages(ctx context.Context, e *env, dir string, sq []*standingQuery, updates int) (*images, error) {
	doc, err := buildDocument(e.seed, e.sc.nodesPerFragment)
	if err != nil {
		return nil, err
	}
	mdoc, err := buildDocument(e.seed, e.sc.nodesPerFragment)
	if err != nil {
		return nil, err
	}
	m := &mirror{doc: mdoc}
	forest, assign, err := fragmentDocument(doc)
	if err != nil {
		return nil, err
	}
	live := filepath.Join(dir, "live")
	sys, err := parbox.Deploy(forest, assign, parbox.WithDurability(live), parbox.WithTripletCache())
	if err != nil {
		return nil, err
	}
	im := &images{crash: filepath.Join(dir, "crash"), checkpoint: filepath.Join(dir, "checkpoint"), standing: sq}
	fail := func(err error) (*images, error) {
		sys.Close()
		return nil, err
	}
	vq, err := parbox.Prepare(viewQuery)
	if err != nil {
		return fail(err)
	}
	res, err := sys.Exec(ctx, vq, parbox.WithMode(parbox.ModeMaterialize))
	if err != nil {
		return fail(err)
	}
	plan, err := newUpdatePlanner(m, sq)
	if err != nil {
		return fail(err)
	}
	for i := 0; i < updates/8*8; i++ {
		u := plan.next()
		if _, err := res.View.Update(ctx, u.frag, u.ops); err != nil {
			return fail(fmt.Errorf("image update %d: %w", i, err))
		}
		if err := m.apply(u.frag, u.ops); err != nil {
			return fail(err)
		}
	}
	for _, s := range sq {
		r, err := sys.Exec(ctx, s.q)
		if err != nil {
			return fail(err)
		}
		want, err := parbox.EvaluateLocal(m.doc.root, s.q)
		if err != nil {
			return fail(err)
		}
		if r.Answer != want {
			return fail(fmt.Errorf("image: standing query %q answers %v, the mirror %v", s.src, r.Answer, want))
		}
		im.answers = append(im.answers, r.Answer)
	}
	if _, err := copyTree(live, im.crash); err != nil {
		return fail(err)
	}
	if err := sys.Close(); err != nil {
		return nil, err
	}
	if im.checkpointBytes, err = copyTree(live, im.checkpoint); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(live); err != nil {
		return nil, err
	}
	var xml countingWriter
	if err := xmltree.WriteXML(&xml, m.doc.root); err != nil {
		return nil, err
	}
	im.documentBytes = xml.n
	return im, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// copyTree copies a directory of regular files and directories and
// returns the bytes copied.
func copyTree(from, to string) (int64, error) {
	var total int64
	err := filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(dst)
		if err != nil {
			return err
		}
		n, err := io.Copy(out, in)
		total += n
		if err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	return total, err
}
