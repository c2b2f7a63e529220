package core

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fixtures"
	"repro/internal/frag"
	"repro/internal/xpath"
)

// TestAlgorithmsOverTCP runs the full running example over real sockets:
// S1 and S2 served by TCP site daemons, S0 (the coordinator) local, the
// same handlers as the in-process cluster, and every algorithm end to end.
// FullDist and NaiveDistributed exercise site→site hops over the sockets.
func TestAlgorithmsOverTCP(t *testing.T) {
	forest, orig, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	st, err := fixtures.Fig2SourceTree(forest)
	if err != nil {
		t.Fatal(err)
	}
	cost := cluster.DefaultCostModel()

	// One shared transport: the coordinator and the remote sites all route
	// through it. Sites capture it before the listener ports exist, so the
	// address map is installed afterwards via SetAddrs.
	tr := cluster.NewTCPTransport(nil)
	defer tr.Close()

	var servers []*cluster.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	addrs := make(map[frag.SiteID]string)
	for _, siteID := range st.Sites() {
		site := cluster.NewSite(siteID)
		for _, id := range st.FragmentsAt(siteID) {
			fr, _ := forest.Fragment(id)
			site.AddFragment(fr)
		}
		RegisterHandlers(site, tr, cost)
		if siteID == "S0" {
			tr.Local(site) // the coordinator's own site: no sockets
			continue
		}
		srv, err := cluster.Serve(site, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs[siteID] = srv.Addr()
	}
	tr.SetAddrs(addrs)

	eng := NewEngine(tr, "S0", st, cost)
	ctx := context.Background()
	for _, src := range []string{
		`//stock[code/text() = "YHOO"]`,
		`//stock[code = "GOOG" && buy = "370"]`,
		`//nothing`,
	} {
		prog := xpath.MustCompileString(src)
		want := xpath.EvalRaw(xpath.MustParse(src), orig)
		for _, algo := range Algorithms() {
			rep, err := eng.Run(ctx, algo, prog)
			if err != nil {
				t.Errorf("%s(%q) over TCP: %v", algo, src, err)
				continue
			}
			if rep.Answer != want {
				t.Errorf("%s(%q) over TCP = %v, want %v", algo, src, rep.Answer, want)
			}
		}
	}
	if tr.Metrics().TotalBytes() == 0 {
		t.Error("no bytes recorded over TCP")
	}
}
