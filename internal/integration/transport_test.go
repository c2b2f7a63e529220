// Transport differential and soak suite: the same forest is deployed
// twice — on the in-process simulated LAN and on real TCP sites
// speaking wire protocol v2 — and the TCP deployment's answers and
// accounting are pinned to the in-memory transport across all six
// algorithms. A concurrent soak then hammers the v2 multiplexing under
// the race detector, and the scheduler fair-share invariants are pinned
// for coalesced serving. `make transport-soak` runs exactly this file.
package integration

import (
	"context"
	"fmt"
	"sync"
	"testing"

	parbox "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// tcpWorld is an 8-site forest served over real sockets plus the
// in-memory reference deployment of the same forest.
type tcpWorld struct {
	st     *frag.SourceTree
	tcpEng *core.Engine // coordinator over TCP (site S0 local, 7 remote)
	memEng *core.Engine // same document on the in-process cluster
	tcpTr  *cluster.TCPTransport
}

const tcpWorldSites = 8

// newTCPWorld builds the paired deployments. Each TCP site runs in
// process behind a real listener with the full handler set and its own
// peer transport (the recursive algorithms hop site-to-site), exactly
// like a parbox-site daemon.
func newTCPWorld(t *testing.T) *tcpWorld {
	t.Helper()
	root, siteRoots, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       11,
		Parents:    xmark.StarParents(tcpWorldSites),
		MBs:        xmark.EvenMBs(0.8, tcpWorldSites),
		NodesPerMB: 2500,
	})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := xmark.Fragment(root, siteRoots)
	if err != nil {
		t.Fatal(err)
	}
	assign := frag.Assignment{}
	for i := 0; i < tcpWorldSites; i++ {
		assign[xmltree.FragmentID(i)] = frag.SiteID(fmt.Sprintf("S%d", i))
	}
	cost := cluster.DefaultCostModel()

	// In-memory reference.
	memCluster := cluster.New(cost)
	memEng, err := core.Deploy(memCluster, forest, assign)
	if err != nil {
		t.Fatal(err)
	}

	// TCP deployment of the same fragments (cloned: both deployments may
	// evaluate concurrently).
	st, err := frag.BuildSourceTree(forest, assign)
	if err != nil {
		t.Fatal(err)
	}
	coord := memEng.Coordinator()
	addrs := make(map[frag.SiteID]string, tcpWorldSites)
	var siteTrs []*cluster.TCPTransport
	var coordLocal *cluster.Site
	for i := 0; i < tcpWorldSites; i++ {
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
		srv, err := cluster.Serve(site, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[id] = srv.Addr()
		siteTrs = append(siteTrs, siteTr)
		if id == coord {
			coordLocal = site
		}
	}
	// Bootstrap cycle: the sites learned their peers' addresses only
	// after every listener was bound.
	for _, siteTr := range siteTrs {
		siteTr.SetAddrs(addrs)
		t.Cleanup(func() { siteTr.Close() })
	}
	coordTr := cluster.NewTCPTransport(addrs)
	// The coordinator reads its own fragments in process, as the
	// in-memory deployment does — local work stays free on both sides,
	// so the byte/message/visit counters must match exactly.
	coordTr.Local(coordLocal)
	t.Cleanup(func() { coordTr.Close() })
	return &tcpWorld{
		st:     st,
		tcpEng: core.NewEngine(coordTr, coord, st, cost),
		memEng: memEng,
		tcpTr:  coordTr,
	}
}

var differentialQueries = []string{
	xmark.NamedQueries["BQ1-person-lookup"],
	xmark.NamedQueries["BQ2-bidder-increase"],
	xmark.NamedQueries["BQ3-closed-price"],
	xmark.NamedQueries["BQ5-absence"],
	xmark.Queries[8],
	xmark.Queries[23],
}

// TestTransportDifferential pins every algorithm's answer and
// accounting over v2 TCP to the in-memory transport: same payload
// codecs on both sides must mean identical Bytes, Messages, TotalSteps
// and Visits (SimTime is excluded — TCP measures real network time
// where the in-process cluster models it).
func TestTransportDifferential(t *testing.T) {
	w := newTCPWorld(t)
	ctx := context.Background()
	for _, src := range differentialQueries {
		prog := xpath.MustCompileString(src)
		for _, algo := range core.Algorithms() {
			memRep, err := w.memEng.Run(ctx, algo, prog)
			if err != nil {
				t.Fatalf("%v mem %q: %v", algo, src, err)
			}
			tcpRep, err := w.tcpEng.Run(ctx, algo, prog)
			if err != nil {
				t.Fatalf("%v tcp %q: %v", algo, src, err)
			}
			if tcpRep.Answer != memRep.Answer {
				t.Errorf("%v %q: answer tcp=%v mem=%v", algo, src, tcpRep.Answer, memRep.Answer)
			}
			if tcpRep.Bytes != memRep.Bytes {
				t.Errorf("%v %q: bytes tcp=%d mem=%d", algo, src, tcpRep.Bytes, memRep.Bytes)
			}
			if tcpRep.Messages != memRep.Messages {
				t.Errorf("%v %q: messages tcp=%d mem=%d", algo, src, tcpRep.Messages, memRep.Messages)
			}
			if tcpRep.TotalSteps != memRep.TotalSteps {
				t.Errorf("%v %q: steps tcp=%d mem=%d", algo, src, tcpRep.TotalSteps, memRep.TotalSteps)
			}
			if len(tcpRep.Visits) != len(memRep.Visits) {
				t.Errorf("%v %q: visit map tcp=%v mem=%v", algo, src, tcpRep.Visits, memRep.Visits)
			} else {
				for site, v := range memRep.Visits {
					if tcpRep.Visits[site] != v {
						t.Errorf("%v %q: visits[%s] tcp=%d mem=%d", algo, src, site, tcpRep.Visits[site], v)
					}
				}
			}
		}
	}
}

// TestTransportCacheCountersDifferential pins the triplet-cache hit and
// miss counters travelling the v2 wire to the in-memory transport: a
// cold round misses everywhere, a warm round hits everywhere, and both
// deployments report identical numbers.
func TestTransportCacheCountersDifferential(t *testing.T) {
	w := newTCPWorld(t)
	w.tcpEng.EnableTripletCache(true)
	w.memEng.EnableTripletCache(true)
	ctx := context.Background()
	prog := xpath.MustCompileString(xmark.Queries[8])
	for round := 0; round < 2; round++ {
		memRep, err := w.memEng.ParBoX(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		tcpRep, err := w.tcpEng.ParBoX(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		if tcpRep.CacheHits != memRep.CacheHits || tcpRep.CacheMisses != memRep.CacheMisses {
			t.Errorf("round %d: cache counters tcp=%d/%d mem=%d/%d",
				round, tcpRep.CacheHits, tcpRep.CacheMisses, memRep.CacheHits, memRep.CacheMisses)
		}
		if round == 1 {
			if tcpRep.CacheMisses != 0 {
				t.Errorf("warm round reported %d misses over TCP", tcpRep.CacheMisses)
			}
			if tcpRep.CacheHits == 0 {
				t.Error("warm round reported zero hits over TCP")
			}
		}
	}
}

// TestTransportSoak is the 64-concurrent-queries × 8-sites soak: every
// worker fires pipelined Boolean rounds at the TCP deployment (all six
// algorithms in rotation would multiply runtime; ParBoX plus the two
// recursive algorithms cover the one-shot, nested-hop and cached-state
// protocol shapes) and checks each answer against the precomputed
// reference. Run under -race this is the multiplexer's interleaving
// test.
func TestTransportSoak(t *testing.T) {
	w := newTCPWorld(t)
	ctx := context.Background()
	soakAlgos := []core.Algorithm{core.AlgoParBoX, core.AlgoFullDist, core.AlgoLazy}

	// Reference answers from the in-memory deployment.
	want := make(map[string]bool, len(differentialQueries))
	progs := make(map[string]*xpath.Program, len(differentialQueries))
	for _, src := range differentialQueries {
		prog := xpath.MustCompileString(src)
		progs[src] = prog
		rep, err := w.memEng.ParBoX(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		want[src] = rep.Answer
	}

	const workers = 64
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			src := differentialQueries[i%len(differentialQueries)]
			algo := soakAlgos[i%len(soakAlgos)]
			for r := 0; r < rounds; r++ {
				rep, err := w.tcpEng.Run(ctx, algo, progs[src])
				if err != nil {
					t.Errorf("worker %d %v: %v", i, algo, err)
					return
				}
				if rep.Answer != want[src] {
					t.Errorf("worker %d %v %q: answer %v, want %v", i, algo, src, rep.Answer, want[src])
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
}

// TestSchedulerFairShareInvariant pins the coalescing scheduler's
// accounting under a 64-caller concurrent burst: within every shared
// round, the callers' fair shares of Bytes, Messages, TotalSteps and
// per-site Visits must sum exactly to the round's totals.
func TestSchedulerFairShareInvariant(t *testing.T) {
	root, siteRoots, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       13,
		Parents:    xmark.StarParents(tcpWorldSites),
		MBs:        xmark.EvenMBs(0.4, tcpWorldSites),
		NodesPerMB: 2500,
	})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := xmark.Fragment(root, siteRoots)
	if err != nil {
		t.Fatal(err)
	}
	assign := parbox.Assignment{}
	for i := 0; i < tcpWorldSites; i++ {
		assign[parbox.FragmentID(i)] = parbox.SiteID(fmt.Sprintf("S%d", i))
	}
	sys, err := parbox.Deploy(forest, assign, parbox.WithCoalescedServing(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*parbox.Prepared, len(differentialQueries))
	for i, src := range differentialQueries {
		if queries[i], err = parbox.Prepare(src); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 64
	results := make([]*parbox.Result, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := sys.Exec(context.Background(), queries[i%len(queries)])
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	close(start)
	wg.Wait()

	// Group callers by shared round (pointer identity) and check sums.
	type sums struct {
		bytes, messages, steps, hits, misses int64
		visits                               map[parbox.SiteID]int64
		callers                              int
	}
	rounds := make(map[*parbox.BatchResult]*sums)
	for i, res := range results {
		if res == nil {
			t.Fatalf("caller %d has no result", i)
		}
		if res.Sched == nil {
			t.Fatalf("caller %d bypassed the scheduler", i)
		}
		s := rounds[res.Sched.Round]
		if s == nil {
			s = &sums{visits: make(map[parbox.SiteID]int64)}
			rounds[res.Sched.Round] = s
		}
		s.bytes += res.Bytes
		s.messages += res.Messages
		s.steps += res.TotalSteps
		s.hits += res.CacheHits
		s.misses += res.CacheMisses
		for site, v := range res.Visits {
			s.visits[site] += v
		}
		s.callers++
	}
	for round, s := range rounds {
		if s.callers != 0 && round == nil {
			t.Fatal("nil round pointer")
		}
		if s.bytes != round.Bytes || s.messages != round.Messages || s.steps != round.TotalSteps {
			t.Errorf("round of %d callers: share sums (bytes %d, msgs %d, steps %d) != round totals (%d, %d, %d)",
				s.callers, s.bytes, s.messages, s.steps, round.Bytes, round.Messages, round.TotalSteps)
		}
		if s.hits != round.CacheHits || s.misses != round.CacheMisses {
			t.Errorf("round of %d callers: cache share sums %d/%d != round %d/%d",
				s.callers, s.hits, s.misses, round.CacheHits, round.CacheMisses)
		}
		for site, v := range round.Visits {
			if s.visits[site] != v {
				t.Errorf("round of %d callers: visits[%s] shares sum %d != round %d", s.callers, site, s.visits[site], v)
			}
		}
	}
	if stats := sys.SchedulerStats(); stats.Queries != callers {
		t.Errorf("scheduler served %d queries, want %d", stats.Queries, callers)
	}
}
