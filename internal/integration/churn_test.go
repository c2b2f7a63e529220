// Update-churn smoke: real TCP sites under a sustained update stream
// with 1000 standing subscriptions fanned out over four queries. Every
// maintenance delta arrives server-pushed over the wire-v2 stream; the
// test pins (a) notification correctness — after each settled update the
// answers solved from pushed triplets must equal a freshly executed
// polled oracle — and (b) zero dropped deltas — the count received by
// the subscriber equals the sum of the sites' DeltasPushed counters.
// `make update-churn-smoke` runs exactly this file under -race.
package integration

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/views"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const churnSubscribers = 1000

// churnSub is one standing subscriber: a channel the dispatcher delivers
// answer flips into, and counters its drain goroutine owns exclusively.
type churnSub struct {
	query int
	ch    chan bool
	flips int
	last  bool
}

func TestUpdateChurnSubscriptions(t *testing.T) {
	// A small, fully scripted document: three child fragments whose
	// contents the update stream cycles through known shapes, so every
	// op's path is valid by construction on the site-side trees.
	root := xmltree.NewElement("r", "",
		xmltree.NewElement("a", ""),
		xmltree.NewElement("c", ""),
		xmltree.NewElement("d", "z"),
	)
	forest := frag.NewForest(root)
	kids := append([]*xmltree.Node{}, root.Children...)
	for _, child := range kids {
		if _, err := forest.Split(child); err != nil {
			t.Fatal(err)
		}
	}
	assign := frag.Assignment{}
	for i := 0; i < 4; i++ {
		assign[xmltree.FragmentID(i)] = frag.SiteID(fmt.Sprintf("S%d", i))
	}
	st, err := frag.BuildSourceTree(forest, assign)
	if err != nil {
		t.Fatal(err)
	}
	cost := cluster.DefaultCostModel()

	// Real listeners: every site serves wire v2 with the full core +
	// views handler set, like a parbox-site daemon.
	addrs := make(map[frag.SiteID]string, 4)
	var siteTrs []*cluster.TCPTransport
	var sites []*cluster.Site
	var coordLocal *cluster.Site
	for i := 0; i < 4; i++ {
		id := frag.SiteID(fmt.Sprintf("S%d", i))
		site := cluster.NewSite(id)
		for _, fid := range st.FragmentsAt(id) {
			fr, ok := forest.Fragment(fid)
			if !ok {
				t.Fatalf("forest missing fragment %d", fid)
			}
			site.AddFragment(&frag.Fragment{ID: fr.ID, Parent: fr.Parent, Root: fr.Root.Clone()})
		}
		siteTr := cluster.NewTCPTransport(nil)
		siteTr.Local(site)
		core.RegisterHandlers(site, siteTr, cost)
		views.RegisterHandlers(site, siteTr)
		srv, err := cluster.Serve(site, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[id] = srv.Addr()
		siteTrs = append(siteTrs, siteTr)
		sites = append(sites, site)
		if id == "S0" {
			coordLocal = site
		}
	}
	for _, siteTr := range siteTrs {
		siteTr.SetAddrs(addrs)
		t.Cleanup(func() { siteTr.Close() })
	}
	coordTr := cluster.NewTCPTransport(addrs)
	coordTr.Local(coordLocal)
	t.Cleanup(func() { coordTr.Close() })
	eng := core.NewEngine(coordTr, "S0", st, cost)
	ctx := context.Background()

	progs := []*xpath.Program{
		xpath.MustCompileString(`//b`),
		xpath.MustCompileString(`//a[b/text() = "x"]`),
		xpath.MustCompileString(`//c && //b`),
		xpath.MustCompileString(`//d[text() = "z"]`),
	}
	fpToQuery := make(map[uint64]int, len(progs))
	for i, p := range progs {
		fpToQuery[p.Fingerprint()] = i
	}

	// Subscribe to every site's delta stream before any program is
	// standing, so no push can precede an observer. Received deltas are
	// counted then forwarded with a blocking send — the zero-drop
	// discipline under test.
	var received atomic.Uint64
	deltaCh := make(chan []byte)
	drainDone := make(chan struct{})
	var stopOnce sync.Once
	stopDrain := func() { stopOnce.Do(func() { close(drainDone) }) }
	for _, id := range st.Sites() {
		cancel, err := coordTr.SubscribeDeltas(ctx, "S0", id, func(body []byte) {
			received.Add(1)
			b := append([]byte(nil), body...)
			select {
			case deltaCh <- b:
			case <-drainDone:
			}
		})
		if err != nil {
			t.Fatalf("subscribe %s: %v", id, err)
		}
		t.Cleanup(cancel)
	}
	t.Cleanup(stopDrain)

	// Register the four programs as standing at every site and build the
	// client-side solver state from the registration baselines.
	arena := boolexpr.NewArena()
	var stateMu sync.Mutex
	triplets := make([]map[xmltree.FragmentID]eval.Triplet, len(progs))
	versions := make([]map[xmltree.FragmentID]uint64, len(progs))
	answers := make([]bool, len(progs))
	for qi, p := range progs {
		triplets[qi] = make(map[xmltree.FragmentID]eval.Triplet)
		versions[qi] = make(map[xmltree.FragmentID]uint64)
		for _, id := range st.Sites() {
			items, err := views.RegisterProg(ctx, coordTr, "S0", id, p, st.FragmentsAt(id))
			if err != nil {
				t.Fatalf("register %q at %s: %v", p, id, err)
			}
			for _, it := range items {
				tr, err := eval.DecodeTripletInto(arena, it.Triplet)
				if err != nil {
					t.Fatal(err)
				}
				triplets[qi][it.Frag] = tr
				versions[qi][it.Frag] = it.Version
			}
		}
		ans, _, err := eval.Solve(st, triplets[qi], p)
		if err != nil {
			t.Fatal(err)
		}
		answers[qi] = ans
	}

	// 1000 standing subscribers fanned out over the four queries; each
	// drain goroutine owns its counters, read back after shutdown.
	subs := make([]*churnSub, churnSubscribers)
	var wg sync.WaitGroup
	for i := range subs {
		s := &churnSub{query: i % len(progs), ch: make(chan bool, 4)}
		s.last = answers[s.query]
		subs[i] = s
		wg.Add(1)
		go func(s *churnSub) {
			defer wg.Done()
			for v := range s.ch {
				s.flips++
				s.last = v
			}
		}(s)
	}

	// The dispatcher: applies pushed deltas to the solver state and
	// fans answer flips out to every subscriber of the query (blocking
	// sends — a slow subscriber backpressures, nothing is dropped).
	dispatcherDone := make(chan struct{})
	go func() {
		defer close(dispatcherDone)
		for {
			var body []byte
			select {
			case body = <-deltaCh:
			case <-drainDone:
				return
			}
			d, err := views.DecodeDelta(body)
			if err != nil {
				t.Errorf("bad delta: %v", err)
				continue
			}
			qi, ok := fpToQuery[d.FP]
			if !ok {
				t.Errorf("delta for unknown program fp %x", d.FP)
				continue
			}
			stateMu.Lock()
			if d.Version <= versions[qi][d.Frag] {
				stateMu.Unlock()
				continue
			}
			versions[qi][d.Frag] = d.Version
			tr, err := eval.DecodeTripletInto(arena, d.Triplet)
			if err != nil {
				stateMu.Unlock()
				t.Errorf("delta triplet: %v", err)
				continue
			}
			triplets[qi][d.Frag] = tr
			ans, _, err := eval.Solve(st, triplets[qi], progs[qi])
			if err != nil {
				stateMu.Unlock()
				t.Errorf("solve: %v", err)
				continue
			}
			flipped := ans != answers[qi]
			answers[qi] = ans
			stateMu.Unlock()
			if flipped {
				for _, s := range subs {
					if s.query == qi {
						s.ch <- ans
					}
				}
			}
		}
	}()

	// The update driver: a views.View over the same TCP transport.
	view, err := views.Materialize(ctx, coordTr, "S0", st, xpath.MustCompileString(`//r`))
	if err != nil {
		t.Fatal(err)
	}

	// One churn round; paths are valid by construction because every
	// round returns each fragment to its entry shape (a: [], c: [],
	// d: text only).
	type step struct {
		frag xmltree.FragmentID
		ops  []views.UpdateOp
	}
	round := []step{
		{1, []views.UpdateOp{{Op: views.OpInsert, Label: "b", Text: "x"}}},
		{2, []views.UpdateOp{{Op: views.OpInsert, Label: "b"}}},
		{1, []views.UpdateOp{{Op: views.OpSetText, Path: []int{0}, Text: "y"}}},
		{1, []views.UpdateOp{{Op: views.OpDelete, Path: []int{0}}}},
		{2, []views.UpdateOp{{Op: views.OpDelete, Path: []int{0}}}},
		{3, []views.UpdateOp{{Op: views.OpSetText, Path: nil, Text: "q"}}},
		{3, []views.UpdateOp{{Op: views.OpSetText, Path: nil, Text: "z"}}},
		{1, []views.UpdateOp{{Op: views.OpInsert, Label: "b", Text: "x"}}},
		{1, []views.UpdateOp{{Op: views.OpInsert, Label: "b", Text: "x"}}},
		{1, []views.UpdateOp{{Op: views.OpDelete, Path: []int{1}}}},
		{2, []views.UpdateOp{{Op: views.OpInsert, Label: "b"}}},
		{1, []views.UpdateOp{{Op: views.OpDelete, Path: []int{0}}}},
		{2, []views.UpdateOp{{Op: views.OpDelete, Path: []int{0}}}},
		{3, []views.UpdateOp{{Op: views.OpSetText, Path: nil, Text: "w"}}},
	}
	oracle := func(qi int) bool {
		rep, err := eng.ParBoX(ctx, progs[qi])
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		return rep.Answer
	}
	finalOracle := make([]bool, len(progs))
	updates := 0
	for roundNo := 0; roundNo < 3; roundNo++ {
		for si, s := range round {
			if _, err := view.Update(ctx, s.frag, s.ops); err != nil {
				t.Fatalf("round %d step %d: %v", roundNo, si, err)
			}
			updates++
			// The polled oracle this settled update must converge to.
			for qi := range progs {
				want := oracle(qi)
				finalOracle[qi] = want
				deadline := time.Now().Add(5 * time.Second)
				for {
					stateMu.Lock()
					got := answers[qi]
					stateMu.Unlock()
					if got == want {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("round %d step %d query %d: pushed answer %v, polled oracle %v",
							roundNo, si, qi, got, want)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}

	// Zero dropped deltas: everything the sites pushed must have been
	// received. Pushes can trail the update response, so poll to quiesce.
	pushedTotal := func() uint64 {
		var n uint64
		for _, site := range sites {
			n += site.Stats().Snapshot().DeltasPushed
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() != pushedTotal() {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := received.Load(), pushedTotal(); got != want {
		t.Errorf("received %d deltas, sites pushed %d — dropped deltas", got, want)
	}
	if want := pushedTotal(); want == 0 {
		t.Error("no deltas pushed at all — the churn exercised nothing")
	}

	// Update-path health: the tiny virtual-free fragments must have been
	// maintained by spine recomputation, and the redundant steps of the
	// script must have been recognized as no-ops.
	var spine, noop uint64
	for _, site := range sites {
		snap := site.Stats().Snapshot()
		spine += snap.SpineRecomputes
		noop += snap.NoopUpdates
	}
	if spine == 0 {
		t.Error("no spine recomputes recorded across the churn")
	}
	if noop == 0 {
		t.Error("no no-op updates recorded (the script contains redundant edits)")
	}

	// Shut the fanout down and audit every subscriber: same flip count
	// for all subscribers of a query, and a final answer equal to the
	// oracle's.
	stopDrain()
	<-dispatcherDone
	for _, s := range subs {
		close(s.ch)
	}
	wg.Wait()
	flipsByQuery := make(map[int]int)
	for i, s := range subs {
		if s.last != finalOracle[s.query] {
			t.Fatalf("subscriber %d (query %d): final answer %v, oracle %v",
				i, s.query, s.last, finalOracle[s.query])
		}
		if n, seen := flipsByQuery[s.query]; seen {
			if s.flips != n {
				t.Fatalf("subscriber %d (query %d): %d flips, peers saw %d — uneven fanout",
					i, s.query, s.flips, n)
			}
		} else {
			flipsByQuery[s.query] = s.flips
		}
	}
	if updates != 3*len(round) {
		t.Fatalf("ran %d updates, want %d", updates, 3*len(round))
	}
	t.Logf("churn: %d updates, %d deltas pushed, %d spine recomputes, %d no-ops, flips by query %v",
		updates, pushedTotal(), spine, noop, flipsByQuery)
}
