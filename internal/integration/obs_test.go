// Observability integration suite: span trees reconstructed across real
// TCP sites (the piggybacked server-side spans of wire protocol v2), and
// the agreement of the per-query ledger (Report) with the per-site one
// (SiteStats).
package integration

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestSpanTreeOverTCP runs a traced ParBoX round against the 8-site TCP
// deployment and checks the reconstructed tree covers every remote hop:
// for each remotely visited site, a client-side rpc span AND the
// server-side handle/queue spans that rode back piggybacked on the v2
// response — all linked into one tree under one trace ID.
func TestSpanTreeOverTCP(t *testing.T) {
	w := newTCPWorld(t)
	col := obs.NewCollector()
	root := obs.Span{TraceID: obs.NewTraceID(), ID: obs.NewSpanID(), Site: "coord", Name: "test-root"}
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{
		TraceID: root.TraceID, SpanID: root.ID, Collector: col,
	})
	prog := xpath.MustCompileString(xmark.Queries[8])
	rep, err := w.tcpEng.ParBoX(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	col.Add(root)
	spans := col.Spans()
	if len(spans) < 2 {
		t.Fatalf("only %d spans collected", len(spans))
	}

	ids := make(map[uint64]obs.Span, len(spans))
	for _, sp := range spans {
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %q carries trace %x, want %x", sp.Name, sp.TraceID, root.TraceID)
		}
		if _, dup := ids[sp.ID]; dup {
			t.Fatalf("duplicate span ID %x", sp.ID)
		}
		ids[sp.ID] = sp
	}
	// Connectivity: every span must reach the root via parent links.
	for _, sp := range spans {
		cur, hops := sp, 0
		for cur.ID != root.ID {
			p, ok := ids[cur.Parent]
			if !ok {
				t.Fatalf("span %q@%s is orphaned (parent %x unknown)", sp.Name, sp.Site, cur.Parent)
			}
			if hops++; hops > len(spans) {
				t.Fatalf("parent cycle reaching from span %q", sp.Name)
			}
			cur = p
		}
	}

	// Coverage: every remote visit produced both halves of the hop.
	kind := make(map[string]map[string]int) // site -> span name -> count
	for _, sp := range spans {
		if kind[sp.Site] == nil {
			kind[sp.Site] = make(map[string]int)
		}
		kind[sp.Site][sp.Name]++
	}
	coord := w.memEng.Coordinator()
	remoteVisits := 0
	for site, v := range rep.Visits {
		if site == coord || v == 0 {
			continue
		}
		remoteVisits += int(v)
		names := kind[string(site)]
		if names["rpc parbox.evalQual"] == 0 {
			t.Errorf("site %s: no client-side rpc span (%v)", site, names)
		}
		if names["handle parbox.evalQual"] == 0 {
			t.Errorf("site %s: no server-side handle span piggybacked back (%v)", site, names)
		}
		if names["queue"] == 0 {
			t.Errorf("site %s: no server-side queue span (%v)", site, names)
		}
		if names["bottomUp"] == 0 {
			t.Errorf("site %s: no bottomUp span (%v)", site, names)
		}
	}
	if remoteVisits < tcpWorldSites-1 {
		t.Fatalf("only %d remote visits — the deployment did not fan out", remoteVisits)
	}
	// The remote bottomUp spans must carry the step attribution.
	steps := int64(0)
	for _, sp := range spans {
		if sp.Name == "bottomUp" {
			if v, ok := sp.Attr("steps"); ok {
				steps += v
			}
		}
	}
	if steps == 0 {
		t.Error("bottomUp spans carry no step attribution")
	}
}

// TestUntracedCarriesNoSpans: the same TCP round without a trace
// context must piggyback nothing (the zero-cost-when-off contract).
func TestUntracedCarriesNoSpans(t *testing.T) {
	w := newTCPWorld(t)
	prog := xpath.MustCompileString(xmark.Queries[8])
	if _, err := w.tcpEng.ParBoX(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
	// The sites' trace rings retain only traced requests.
	// (Ring access is indirect here: re-run traced and compare growth.)
	col := obs.NewCollector()
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{
		TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Collector: col,
	})
	if _, err := w.tcpEng.ParBoX(ctx, prog); err != nil {
		t.Fatal(err)
	}
	if len(col.Spans()) == 0 {
		t.Fatal("traced round collected nothing — propagation is broken")
	}
}

// siteTotals sums the sites' SiteStats blocks.
func siteTotals(sites []*cluster.Site) (sum obs.SiteStatsSnapshot, visits map[frag.SiteID]uint64) {
	visits = make(map[frag.SiteID]uint64, len(sites))
	for _, site := range sites {
		s := site.Stats().Snapshot()
		visits[site.ID()] = s.Visits
		sum.BytesIn += s.BytesIn
		sum.BytesOut += s.BytesOut
		sum.MessagesIn += s.MessagesIn
		sum.MessagesOut += s.MessagesOut
		sum.Steps += s.Steps
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
	}
	return sum, visits
}

// TestReportMatchesSiteStats ties the two ledgers together: the query's
// Report (its recorder) must equal the delta of Σ SiteStats (the sites'
// own blocks) across the run, for all six algorithms on both transports,
// with no tier and no hedging. Bytes, messages and cache counters match
// exactly; steps match once the coordinator-local work the report names
// is taken out (SolveWork, and NaiveCentralized's evaluation of the
// reassembled document — also Hybrid's, past its tipping point). Visits
// match site by site for the algorithms whose every call the coordinator
// makes; the recursive ones (NaiveDistributed, FullDist) report only the
// coordinator's own calls per site, their nested hops entering Bytes and
// Messages through the resolve responses — so there every reported visit
// is a counted one, and the counted total is one per request message.
func TestReportMatchesSiteStats(t *testing.T) {
	w := newTCPWorld(t)
	ctx := context.Background()
	for _, tr := range []struct {
		name  string
		eng   *core.Engine
		sites []*cluster.Site
	}{{"mem", w.memEng, w.memSites}, {"tcp", w.tcpEng, w.tcpSites}} {
		for _, src := range differentialQueries {
			prog := xpath.MustCompileString(src)
			_, centralSteps, err := eval.Evaluate(w.doc.Clone(), prog)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range core.Algorithms() {
				before, visitsBefore := siteTotals(tr.sites)
				rep, err := tr.eng.Run(ctx, algo, prog)
				if err != nil {
					t.Fatalf("%s %v %q: %v", tr.name, algo, src, err)
				}
				after, visitsAfter := siteTotals(tr.sites)
				name := fmt.Sprintf("%s %v %q", tr.name, algo, src)
				eq := func(what string, report int64, stats uint64) {
					if uint64(report) != stats {
						t.Errorf("%s: %s report=%d site stats=%d", name, what, report, stats)
					}
				}
				eq("bytes", rep.Bytes, after.BytesIn+after.BytesOut-before.BytesIn-before.BytesOut)
				eq("messages", rep.Messages, after.MessagesIn+after.MessagesOut-before.MessagesIn-before.MessagesOut)
				eq("cache hits", rep.CacheHits, after.CacheHits-before.CacheHits)
				eq("cache misses", rep.CacheMisses, after.CacheMisses-before.CacheMisses)
				local := rep.SolveWork
				central := algo == core.AlgoNaiveCentralized ||
					algo == core.AlgoHybrid && w.st.Count()*prog.QListSize() >= w.st.TotalSize()
				if central {
					local += centralSteps
				}
				eq("steps net of coordinator-local work", rep.TotalSteps-local, after.Steps-before.Steps)
				recursive := algo == core.AlgoNaiveDistributed || algo == core.AlgoFullDist
				var counted uint64
				for site, n := range visitsAfter {
					d := n - visitsBefore[site]
					counted += d
					if r := uint64(rep.Visits[site]); r != d && (!recursive || r > d) {
						t.Errorf("%s: visits[%s] report=%d site stats=%d", name, site, r, d)
					}
				}
				eq("visits (one per request)", rep.Messages/2, counted)
			}
		}
	}
}

// obsWorld is a small in-memory deployment the ledger tests meter.
func obsWorld(t *testing.T) (*cluster.Cluster, *core.Engine) {
	t.Helper()
	root, siteRoots, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       17,
		Parents:    xmark.StarParents(6),
		MBs:        xmark.EvenMBs(0.3, 6),
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
	for i := 0; i < 6; i++ {
		assign[xmltree.FragmentID(i)] = frag.SiteID(fmt.Sprintf("S%d", i))
	}
	c := cluster.New(cluster.DefaultCostModel())
	eng, err := core.Deploy(c, forest, assign)
	if err != nil {
		t.Fatal(err)
	}
	return c, eng
}

// TestMetricsSymmetryInvariant pins the traffic accounting's pairwise
// symmetry. In process, after a mixed workload, every remote request
// was answered (global MessagesIn == MessagesOut) and each call is one
// request plus one response (TotalMessages == 2 × Σ Visits). Over TCP,
// in the ParBoX star shape only the coordinator calls out, so the
// coordinator's client-side view of each peer (the caller's ledger)
// must equal that peer's own SiteStats block (the callee's) exactly.
func TestMetricsSymmetryInvariant(t *testing.T) {
	c, eng := obsWorld(t)
	ctx := context.Background()
	for _, src := range differentialQueries {
		prog := xpath.MustCompileString(src)
		for _, algo := range []core.Algorithm{core.AlgoParBoX, core.AlgoFullDist} {
			if _, err := eng.Run(ctx, algo, prog); err != nil {
				t.Fatalf("%v %q: %v", algo, src, err)
			}
		}
	}
	var msgsIn, msgsOut, visits int64
	for _, s := range c.Metrics().Snapshot() {
		msgsIn += int64(s.MessagesIn)
		msgsOut += int64(s.MessagesOut)
		visits += int64(s.Visits)
	}
	if visits == 0 {
		t.Fatal("the workload made no remote call — the check is vacuous")
	}
	if msgsIn != msgsOut {
		t.Errorf("global messages asymmetric: in %d, out %d", msgsIn, msgsOut)
	}
	if total := c.Metrics().TotalMessages(); total != 2*visits {
		t.Errorf("TotalMessages %d != 2 × visits %d", total, visits)
	}

	w := newTCPWorld(t)
	coord := w.tcpEng.Coordinator()
	before := make(map[frag.SiteID]obs.SiteStatsSnapshot, len(w.tcpSites))
	for _, site := range w.tcpSites {
		before[site.ID()] = site.Stats().Snapshot()
	}
	w.tcpTr.Metrics().Reset()
	if _, err := w.tcpEng.ParBoX(ctx, xpath.MustCompileString(xmark.Queries[8])); err != nil {
		t.Fatal(err)
	}
	caller := w.tcpTr.Metrics().Snapshot()
	var called int
	for _, site := range w.tcpSites {
		id := site.ID()
		if id == coord {
			continue
		}
		b, a := before[id], site.Stats().Snapshot()
		m := caller[id]
		for _, f := range []struct {
			what           string
			caller, callee uint64
		}{
			{"visits", m.Visits, a.Visits - b.Visits},
			{"messages in", m.MessagesIn, a.MessagesIn - b.MessagesIn},
			{"messages out", m.MessagesOut, a.MessagesOut - b.MessagesOut},
			{"bytes in", m.BytesIn, a.BytesIn - b.BytesIn},
			{"bytes out", m.BytesOut, a.BytesOut - b.BytesOut},
			{"steps", m.Steps, a.Steps - b.Steps},
		} {
			if f.caller != f.callee {
				t.Errorf("site %s: caller-side %s %d != callee-side %d", id, f.what, f.caller, f.callee)
			}
		}
		if m.Visits > 0 {
			called++
		}
	}
	if called == 0 {
		t.Fatal("ParBoX round called no remote site — the check is vacuous")
	}
}

// TestServiceHistogramCountInvariant pins the per-site latency
// histogram (SiteStats.Latency, exported as parbox_site_request_seconds)
// to the message accounting: on a site that only the coordinator calls,
// every dispatch is a successful remote call, so its sample count
// equals both Visits and MessagesIn, and the samples over those sites
// add up to half their messages (one request + one response per call).
func TestServiceHistogramCountInvariant(t *testing.T) {
	c, eng := obsWorld(t)
	ctx := context.Background()
	for _, src := range differentialQueries {
		if _, err := eng.ParBoX(ctx, xpath.MustCompileString(src)); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	var samples, messages uint64
	for id, s := range c.Metrics().Snapshot() {
		if id == eng.Coordinator() {
			continue
		}
		samples += s.Latency.Count
		messages += s.MessagesIn + s.MessagesOut
		if s.Visits != s.Latency.Count {
			t.Errorf("site %s: %d visits but %d histogram samples", id, s.Visits, s.Latency.Count)
		}
		if s.MessagesIn != s.Visits {
			t.Errorf("site %s: MessagesIn %d != Visits %d", id, s.MessagesIn, s.Visits)
		}
		if s.Latency.Count > 0 {
			// The quantiles must be well-formed: p50 <= p95 <= p99.
			p50, p95, p99 := s.Latency.Quantile(0.50), s.Latency.Quantile(0.95), s.Latency.Quantile(0.99)
			if p50 > p95 || p95 > p99 {
				t.Errorf("site %s: quantiles not monotone (p50 %d, p95 %d, p99 %d)", id, p50, p95, p99)
			}
		}
	}
	if samples == 0 {
		t.Fatal("no remote site dispatched anything")
	}
	if samples*2 != messages {
		t.Errorf("histogram samples %d != messages/2 = %d", samples, messages/2)
	}
}

// TestSiteStatsMatchClusterMetrics ties the sites' always-on SiteStats
// blocks (the /metrics and `parbox top` source) to the Cluster's
// Metrics view over them: after a Reset, the view must show exactly
// each block's activity since, for every site, the coordinator
// included; and on non-coordinator sites every dispatch is a remote
// call, so the latency samples equal the successful visits.
func TestSiteStatsMatchClusterMetrics(t *testing.T) {
	c, eng := obsWorld(t)
	ctx := context.Background()
	// Activity before the Reset must not show up in the view.
	if _, err := eng.ParBoX(ctx, xpath.MustCompileString(differentialQueries[0])); err != nil {
		t.Fatal(err)
	}
	before := make(map[frag.SiteID]obs.SiteStatsSnapshot)
	for _, id := range c.Sites() {
		site, ok := c.Site(id)
		if !ok {
			t.Fatalf("cluster lost site %s", id)
		}
		before[id] = site.Stats().Snapshot()
	}
	c.Metrics().Reset()
	for _, src := range differentialQueries {
		if _, err := eng.ParBoX(ctx, xpath.MustCompileString(src)); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	snap := c.Metrics().Snapshot()
	for _, id := range c.Sites() {
		site, _ := c.Site(id)
		stats, b := site.Stats().Snapshot(), before[id]
		m := snap[id]
		if d := stats.Visits - b.Visits; m.Visits != d {
			t.Errorf("site %s: stats visits %d != metrics visits %d", id, d, m.Visits)
		}
		if d := stats.Steps - b.Steps; m.Steps != d {
			t.Errorf("site %s: stats steps %d != metrics steps %d", id, d, m.Steps)
		}
		if d := stats.BytesIn + stats.BytesOut - b.BytesIn - b.BytesOut; m.BytesIn+m.BytesOut != d {
			t.Errorf("site %s: stats bytes %d != metrics bytes %d", id, d, m.BytesIn+m.BytesOut)
		}
		if id == eng.Coordinator() {
			continue
		}
		if want := stats.Visits - stats.Errors - stats.Sheds - stats.DeadlineExpired; stats.Latency.Count != want {
			t.Errorf("site %s: latency samples %d != successful dispatches %d",
				id, stats.Latency.Count, want)
		}
	}
}
