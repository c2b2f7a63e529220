// Command parbox-site is a TCP site daemon: it loads the fragments the
// manifest assigns to this site, registers the full ParBoX + view
// maintenance protocol, and serves peers until interrupted. A deployment
// is one parbox-site per remote site plus a `parbox remote` coordinator.
//
//	parbox-site -name S1 -manifest work/manifest.txt
//
// The listen address defaults to the manifest's entry for the site.
//
// With -data-dir the site is durable: every fragment mutation is written
// to a segmented, CRC-checked WAL and periodically checkpointed into
// snapshots. On a restart the daemon recovers from the data dir instead of
// the manifest's XML files — fragment versions are restored exactly, so
// coordinators using the versioned triplet cache keep their warm entries —
// and fragments are loaded lazily (bounded by -max-resident, 0 =
// unbounded). SIGTERM/SIGINT trigger a graceful flush-and-checkpoint
// shutdown: the listener closes first and in-flight requests drain —
// their responses are written before the connections close — then the
// store writes a final snapshot, so the next start recovers without
// replaying any WAL.
//
// The daemon speaks the multiplexed wire protocol v2 exclusively: any
// number of coordinator requests are in flight per connection, and a
// legacy v1 peer is rejected with a readable error (see
// internal/cluster/wirev2.go for the frame layout and handshake).
//
// With -http addr the daemon additionally serves a live introspection
// plane: /metrics (Prometheus text: the site's visit/message/byte/step
// counters and latency histogram), /healthz, /tracez (recent traced
// requests as span trees, ?min= filters by duration), and
// /debug/pprof. The same counters are also answered over the data
// plane via the obs.stats RPC (a Control kind: never shed), which is what
// `parbox top -manifest …` scrapes.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// config collects the daemon's command-line settings.
type config struct {
	name         string
	manifestPath string
	listen       string
	dataDir      string
	maxResident  int
	syncWrites   bool
	admission    int
	// httpAddr, when non-empty, serves the introspection plane
	// (/metrics, /healthz, /tracez, /debug/pprof) on that address.
	httpAddr string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.name, "name", "", "site name (required, must appear in the manifest)")
	flag.StringVar(&cfg.manifestPath, "manifest", "", "manifest file (required)")
	flag.StringVar(&cfg.listen, "listen", "", "listen address (default: the manifest's address for this site)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable store directory: WAL + snapshots; recovers from it on restart")
	flag.IntVar(&cfg.maxResident, "max-resident", 0, "bound on in-memory fragments with -data-dir (0 = unbounded)")
	flag.BoolVar(&cfg.syncWrites, "sync-writes", false, "fsync every WAL append (survive machine crashes, not just process crashes)")
	flag.IntVar(&cfg.admission, "admission", 0, "max concurrently admitted requests; excess is shed with a retryable overload status (0 = unbounded)")
	flag.StringVar(&cfg.httpAddr, "http", "", "introspection HTTP address serving /metrics, /healthz, /tracez and /debug/pprof (empty = off)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "parbox-site: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	d, err := setup(cfg)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("parbox-site %s: shutting down\n", cfg.name)
	return d.Close()
}

// daemon bundles one running site's server, transport and (optional)
// durable store, so shutdown happens in the one safe order.
type daemon struct {
	srv  *cluster.Server
	tr   *cluster.TCPTransport
	st   *store.Store
	site *cluster.Site
	// httpSrv/httpLn are the -http introspection server (nil without it).
	httpSrv *http.Server
	httpLn  net.Listener
}

// Close shuts the daemon down gracefully: stop accepting work, then
// checkpoint and close the store (a flush-and-checkpoint, never an exit
// mid-write), then drop the peer connections. Safe to call once.
func (d *daemon) Close() error {
	var first error
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	if d.srv != nil {
		if err := d.srv.Close(); err != nil {
			first = err
		}
	}
	if d.st != nil {
		if err := d.site.StoreErr(); err != nil && first == nil {
			first = err
		}
		if err := d.st.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.tr != nil {
		if err := d.tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setup loads or recovers the site's fragments, registers the full
// protocol and starts serving; split out of run so tests can drive it.
func setup(cfg config) (*daemon, error) {
	name, manifestPath, listen := cfg.name, cfg.manifestPath, cfg.listen
	dataDir, maxResident := cfg.dataDir, cfg.maxResident
	syncWrites, admission := cfg.syncWrites, cfg.admission
	if name == "" || manifestPath == "" {
		return nil, fmt.Errorf("-name and -manifest are required")
	}
	m, err := manifest.ParseFile(manifestPath)
	if err != nil {
		return nil, err
	}
	siteID := frag.SiteID(name)
	addr, ok := m.Sites[siteID]
	if !ok {
		return nil, fmt.Errorf("site %s not in manifest", name)
	}
	if listen == "" {
		if addr == manifest.LocalAddr {
			return nil, fmt.Errorf("site %s is declared local; give -listen explicitly", name)
		}
		listen = addr
	}

	// Peers (for FullDist / NaiveDistributed hops between sites).
	peers := make(map[frag.SiteID]string)
	for s, a := range m.Sites {
		if s != siteID && a != manifest.LocalAddr {
			peers[s] = a
		}
	}
	tr := cluster.NewTCPTransport(peers)
	var st *store.Store
	fail := func(err error) (*daemon, error) {
		if st != nil {
			st.Discard()
		}
		tr.Close()
		return nil, err
	}

	site := cluster.NewSite(siteID)
	// Recursive-algorithm hops addressed to this very site (a fragment
	// whose sub-fragment lives here too) dispatch in-process instead of
	// dialing our own listener.
	tr.Local(site)
	if dataDir != "" {
		// OpenSeedable wipes a first start that crashed mid-seeding (state
		// but no completing checkpoint): the manifest is still
		// authoritative, and only the store's own files are touched — the
		// operator's directory may hold unrelated content.
		if st, err = store.OpenSeedable(dataDir, store.Options{SyncWrites: syncWrites}); err != nil {
			return fail(err)
		}
	}
	var origin string
	var count int
	if st != nil && !st.Empty() {
		// Restart: the durable store is authoritative; the manifest's XML
		// files describe the original deployment, not the maintained state.
		// SetupSite restores versions exactly and fragments load lazily, so
		// a site with a big forest is serving again without decoding a tree.
		stats := st.Stats()
		count = stats.LiveFragments
		origin = fmt.Sprintf("recovered from %s (snapshot %d, %d cached triplets)",
			dataDir, stats.SnapshotSeq, stats.CachedTriplets)
	} else {
		frags, _, err := m.LoadFragments(siteID)
		if err != nil {
			return fail(err)
		}
		total := 0
		for _, fr := range frags {
			site.AddFragment(fr)
			total += fr.Size()
		}
		count = len(frags)
		origin = fmt.Sprintf("loaded %d nodes from the manifest", total)
	}
	// What every site serves (serve.SetupSite), the obs.stats RPC that
	// `parbox top` scrapes included; admission past -admission; the store,
	// seeded when fresh, journals everything from here on.
	if err := serve.SetupSite(site, tr, cluster.DefaultCostModel(), admission, st, maxResident); err != nil {
		return fail(err)
	}

	// The daemon serves wire protocol v2 only: a version-skewed v1
	// coordinator is answered with a clean "requires wire protocol v2"
	// error instead of interleaved-frame corruption. Close drains
	// in-flight v2 requests before the connections go away. -http serves
	// the site's counters as Prometheus text plus the slow-request trace
	// ring and pprof.
	srv, err := cluster.Serve(site, listen)
	if err != nil {
		return fail(err)
	}
	d := &daemon{srv: srv, tr: tr, st: st, site: site}
	if cfg.httpAddr != "" {
		ln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("introspection listen %s: %w", cfg.httpAddr, err)
		}
		mux := obs.NewMux(obs.MuxConfig{
			Metrics: func(p *obs.Prom) {
				snap := site.Stats().Snapshot()
				snap.Site = name
				p.SiteStatsProm(snap)
			},
			Healthz: func() (bool, string) { return true, fmt.Sprintf("ok site=%s\n", name) },
			Tracez:  site.TraceRing().Records,
		})
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: mux}
		go d.httpSrv.Serve(ln)
		fmt.Printf("parbox-site %s: introspection on http://%s\n", name, ln.Addr())
	}
	fmt.Printf("parbox-site %s: serving %d fragments on %s (%s)\n",
		name, count, srv.Addr(), origin)
	return d, nil
}
