package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	mb := fs.Float64("mb", 1, "document size in paper megabytes")
	seed := fs.Int64("seed", 1, "generator seed")
	scale := fs.Int("scale", 0, "nodes per paper-MB (default 2500)")
	beacon := fs.String("beacon", "", "plant a beacon element with this text")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)

	doc := xmark.Generate(xmark.Spec{Seed: *seed, MB: *mb, NodesPerMB: *scale, Beacon: *beacon})
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := xmltree.WriteXML(w, doc); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintf(os.Stderr, "generated %d nodes (depth %d)\n", doc.Size(), doc.Depth())
	return nil
}

func loadDoc(path string) (*xmltree.Node, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xmltree.ParseXML(f)
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	docPath := fs.String("doc", "", "document file (required)")
	query := fs.String("q", "", "Boolean XPath query (required)")
	fs.Parse(args)
	if *docPath == "" || *query == "" {
		return fmt.Errorf("-doc and -q are required")
	}
	doc, err := loadDoc(*docPath)
	if err != nil {
		return err
	}
	prog, err := xpath.CompileString(*query)
	if err != nil {
		return err
	}
	start := time.Now()
	ans, steps, err := eval.Evaluate(doc, prog)
	if err != nil {
		return err
	}
	fmt.Printf("answer: %v\n", ans)
	fmt.Printf("|T| = %d nodes, |QList| = %d, %d steps, %v\n",
		doc.Size(), prog.QListSize(), steps, time.Since(start).Round(time.Microsecond))
	return nil
}

// fragmentDoc splits a document into n fragments at the largest top-level
// split points, falling back to random splits for the remainder.
func fragmentDoc(doc *xmltree.Node, n int, seed int64) (*frag.Forest, error) {
	forest := frag.NewForest(doc)
	// Prefer big subtrees directly under the root (XMark sections or
	// nested sites) — the natural administrative fragmentation.
	type cand struct {
		node *xmltree.Node
		size int
	}
	var cands []cand
	for _, c := range doc.Children {
		cands = append(cands, cand{c, c.Size()})
	}
	for i := 0; i < len(cands)-1; i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].size > cands[i].size {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}
	for _, c := range cands {
		if forest.Count() >= n {
			break
		}
		if c.size < 3 {
			continue
		}
		if _, err := forest.Split(c.node); err != nil {
			return nil, err
		}
	}
	if forest.Count() < n {
		if err := forest.SplitRandom(rand.New(rand.NewSource(seed)), n-forest.Count()); err != nil {
			return nil, err
		}
	}
	return forest, nil
}

func cmdSplit(args []string) error {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	docPath := fs.String("doc", "", "document file (required)")
	n := fs.Int("n", 2, "number of fragments")
	sitesFlag := fs.String("sites", "S0,S1", "comma-separated site names (round-robin assignment)")
	out := fs.String("out", "work", "output directory")
	seed := fs.Int64("seed", 1, "seed for fallback random splits")
	basePort := fs.Int("baseport", 7071, "first TCP port for the generated site addresses")
	fs.Parse(args)
	if *docPath == "" {
		return fmt.Errorf("-doc is required")
	}
	doc, err := loadDoc(*docPath)
	if err != nil {
		return err
	}
	forest, err := fragmentDoc(doc, *n, *seed)
	if err != nil {
		return err
	}
	sites := strings.Split(*sitesFlag, ",")
	siteIDs := make([]frag.SiteID, len(sites))
	for i, s := range sites {
		siteIDs[i] = frag.SiteID(strings.TrimSpace(s))
	}
	assign := frag.AssignRoundRobin(forest, siteIDs)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	m := &manifest.Manifest{Dir: *out, Sites: make(map[frag.SiteID]string)}
	m.Sites[siteIDs[0]] = manifest.LocalAddr // coordinator
	port := *basePort
	for _, s := range siteIDs[1:] {
		m.Sites[s] = fmt.Sprintf("127.0.0.1:%d", port)
		port++
	}
	for _, id := range forest.IDs() {
		fr, _ := forest.Fragment(id)
		name := fmt.Sprintf("f%d.xml", id)
		f, err := os.Create(filepath.Join(*out, name))
		if err != nil {
			return err
		}
		if err := xmltree.WriteXML(f, fr.Root); err != nil {
			f.Close()
			return err
		}
		f.Close()
		m.Fragments = append(m.Fragments, manifest.FragmentEntry{
			ID: id, Parent: fr.Parent, Site: assign[id], File: name,
		})
	}
	mf, err := os.Create(filepath.Join(*out, "manifest.txt"))
	if err != nil {
		return err
	}
	defer mf.Close()
	if err := m.Write(mf); err != nil {
		return err
	}
	fmt.Printf("wrote %d fragments and manifest.txt to %s\n", forest.Count(), *out)
	fmt.Printf("next: start the remote sites, e.g.\n")
	for s, addr := range m.Sites {
		if addr != manifest.LocalAddr {
			fmt.Printf("  parbox-site -name %s -manifest %s\n", s, filepath.Join(*out, "manifest.txt"))
		}
	}
	fmt.Printf("then: parbox remote -manifest %s -q '//item[quantity]'\n", filepath.Join(*out, "manifest.txt"))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	docPath := fs.String("doc", "", "document file (required; or use -mb to generate)")
	mb := fs.Float64("mb", 0, "generate a document of this size instead of reading -doc")
	n := fs.Int("n", 4, "number of fragments")
	nsites := fs.Int("sites", 3, "number of simulated sites")
	algoName := fs.String("algo", core.AlgoParBoX.String(), "algorithm: "+strings.Join(core.AlgorithmNames(), "|"))
	query := fs.String("q", "", "Boolean XPath query (required)")
	seed := fs.Int64("seed", 1, "seed")
	verbose := fs.Bool("v", false, "print per-site metrics")
	trace := fs.Bool("trace", false, "print the call trace: every message exchanged, with its bytes")
	fs.Parse(args)
	if *query == "" {
		return fmt.Errorf("-q is required")
	}
	algo, err := parseAlgoFlag(*algoName)
	if err != nil {
		return err
	}
	var doc *xmltree.Node
	switch {
	case *mb > 0:
		doc = xmark.Generate(xmark.Spec{Seed: *seed, MB: *mb})
	case *docPath != "":
		doc, err = loadDoc(*docPath)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -doc or -mb is required")
	}
	prog, err := xpath.CompileString(*query)
	if err != nil {
		return err
	}
	forest, err := fragmentDoc(doc, *n, *seed)
	if err != nil {
		return err
	}
	siteIDs := make([]frag.SiteID, *nsites)
	for i := range siteIDs {
		siteIDs[i] = frag.SiteID(fmt.Sprintf("S%d", i))
	}
	assign := frag.AssignRoundRobin(forest, siteIDs)
	c := cluster.New(cluster.DefaultCostModel())
	eng, err := core.Deploy(c, forest, assign)
	if err != nil {
		return err
	}
	// Tracing makes every call a span, the site-to-site hops of the
	// recursive algorithms included, labelled with the bytes it moved.
	ctx := context.Background()
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	if *trace {
		tc.Collector = obs.NewCollector()
		ctx = obs.WithTrace(ctx, tc)
	}
	rep, err := eng.Run(ctx, algo, prog)
	if err != nil {
		return err
	}
	printReport(rep)
	if *trace {
		fmt.Println("\ncall trace:")
		obs.RenderTrace(os.Stdout, obs.TraceRecord{TraceID: tc.TraceID, Root: "run " + algo.String(),
			Dur: rep.Wall, Spans: tc.Collector.Spans()})
	}
	if *verbose {
		fmt.Println(eng.SourceTree().String())
		fmt.Println(c.Metrics().String())
	}
	return nil
}

// parseAlgoFlag resolves a -algo flag value; ParseAlgorithm's error
// already names every valid algorithm, so the user sees the full set
// instead of a bare rejection.
func parseAlgoFlag(name string) (core.Algorithm, error) {
	algo, err := core.ParseAlgorithm(name)
	if err != nil {
		return 0, fmt.Errorf("bad -algo: %w", err)
	}
	return algo, nil
}

func printReport(rep core.Report) {
	fmt.Printf("answer:      %v\n", rep.Answer)
	fmt.Printf("algorithm:   %s\n", rep.Algorithm)
	fmt.Printf("model time:  %v   (wall %v)\n", rep.SimTime.Round(time.Microsecond), rep.Wall.Round(time.Microsecond))
	fmt.Printf("traffic:     %d bytes in %d messages\n", rep.Bytes, rep.Messages)
	fmt.Printf("computation: %d node×subquery steps (solve work %d)\n", rep.TotalSteps, rep.SolveWork)
	if len(rep.Visits) > 0 {
		fmt.Printf("visits:      ")
		first := true
		for _, s := range sortedSites(rep.Visits) {
			if !first {
				fmt.Print(", ")
			}
			fmt.Printf("%s=%d", s, rep.Visits[s])
			first = false
		}
		fmt.Println()
	}
}

func sortedSites(m map[frag.SiteID]int64) []frag.SiteID {
	out := make([]frag.SiteID, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	for i := 0; i < len(out)-1; i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func cmdRemote(args []string) error {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "manifest file (required)")
	algoName := fs.String("algo", core.AlgoParBoX.String(), "algorithm: "+strings.Join(core.AlgorithmNames(), "|"))
	query := fs.String("q", "", "Boolean XPath query (required)")
	timeout := fs.Duration("timeout", 30*time.Second, "overall deadline")
	fs.Parse(args)
	if *manifestPath == "" || *query == "" {
		return fmt.Errorf("-manifest and -q are required")
	}
	algo, err := parseAlgoFlag(*algoName)
	if err != nil {
		return err
	}
	m, err := manifest.ParseFile(*manifestPath)
	if err != nil {
		return err
	}
	prog, err := xpath.CompileString(*query)
	if err != nil {
		return err
	}

	// The coordinator serves every "local" site in-process and dials the
	// rest.
	cost := cluster.DefaultCostModel()
	addrs := make(map[frag.SiteID]string)
	var localSites []frag.SiteID
	for s, addr := range m.Sites {
		if addr == manifest.LocalAddr {
			localSites = append(localSites, s)
		} else {
			addrs[s] = addr
		}
	}
	if len(localSites) == 0 {
		return fmt.Errorf("manifest declares no local site for the coordinator")
	}
	tr := cluster.NewTCPTransport(addrs)
	defer tr.Close()

	sizes := make(map[xmltree.FragmentID]int)
	for _, siteID := range localSites {
		site := cluster.NewSite(siteID)
		frags, szs, err := m.LoadFragments(siteID)
		if err != nil {
			return err
		}
		for id, fr := range frags {
			site.AddFragment(fr)
			sizes[id] = szs[id]
		}
		core.RegisterHandlers(site, tr, cost)
		tr.Local(site)
	}
	st, err := m.SourceTree(sizes)
	if err != nil {
		return err
	}
	rootID, err := m.RootID()
	if err != nil {
		return err
	}
	coordEntry, _ := st.Entry(rootID)
	eng := core.NewEngine(tr, coordEntry.Site, st, cost)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := eng.Run(ctx, algo, prog)
	if err != nil {
		return err
	}
	printReport(rep)
	return nil
}

// cmdHealth probes every remote site of a manifest over TCP and prints a
// status line per site: the serving tier's health check as an operator
// command. A site answering the probe is up; a dial/handshake/timeout
// failure prints the error. Exits nonzero if any site is unreachable.
func cmdHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "manifest file (required)")
	timeout := fs.Duration("timeout", 3*time.Second, "per-site probe deadline")
	fs.Parse(args)
	if *manifestPath == "" {
		return fmt.Errorf("-manifest is required")
	}
	m, err := manifest.ParseFile(*manifestPath)
	if err != nil {
		return err
	}
	addrs := make(map[frag.SiteID]string)
	var sites []frag.SiteID
	for s, addr := range m.Sites {
		if addr != manifest.LocalAddr {
			addrs[s] = addr
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		return fmt.Errorf("manifest declares no remote sites")
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	tr := cluster.NewTCPTransport(addrs)
	defer tr.Close()

	down := 0
	for _, s := range sites {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		start := time.Now()
		resp, _, err := tr.Call(ctx, "health", s, cluster.Request{Kind: serve.KindProbe})
		rtt := time.Since(start)
		cancel()
		if err != nil {
			down++
			fmt.Printf("%-8s down  %-21s %v\n", s, addrs[s], err)
			continue
		}
		status := "up"
		if string(resp.Payload) != string(s) {
			status = "confused" // a daemon serving under another name
		}
		fmt.Printf("%-8s %-5s %-21s rtt %s\n", s, status, addrs[s], rtt.Round(10*time.Microsecond))
	}
	if down > 0 {
		return fmt.Errorf("%d of %d sites down", down, len(sites))
	}
	return nil
}

// cmdTop scrapes every remote site's always-on counters (the obs.stats
// RPC) over the ordinary transport and renders the paper's evaluation
// quantities — visits, messages, bytes, steps — plus cache, shed and
// latency-quantile columns as a live table. With -watch it refreshes at
// that interval until interrupted. The scrape is a Control kind: never
// shed and excluded from the counters it reports, so watching a site
// does not perturb what it measures.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	manifestPath := fs.String("manifest", "", "manifest file (required)")
	timeout := fs.Duration("timeout", 3*time.Second, "per-site scrape deadline")
	watch := fs.Duration("watch", 0, "refresh interval (0 = scrape once)")
	fs.Parse(args)
	if *manifestPath == "" {
		return fmt.Errorf("-manifest is required")
	}
	m, err := manifest.ParseFile(*manifestPath)
	if err != nil {
		return err
	}
	addrs := make(map[frag.SiteID]string)
	var sites []frag.SiteID
	for s, addr := range m.Sites {
		if addr != manifest.LocalAddr {
			addrs[s] = addr
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		return fmt.Errorf("manifest declares no remote sites")
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	tr := cluster.NewTCPTransport(addrs)
	defer tr.Close()
	for {
		if err := topOnce(tr, sites, *timeout); err != nil {
			return err
		}
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
		fmt.Println()
	}
}

// topOnce scrapes and prints one round of the per-site stats table. The
// spine/full/noop/push columns are the update-path health counters: a
// healthy incremental deployment shows spine recomputes dwarfing full
// recomputes, and noop updates absorbing irrelevant edits.
func topOnce(tr *cluster.TCPTransport, sites []frag.SiteID, timeout time.Duration) error {
	fmt.Printf("%-8s %8s %8s %8s %11s %11s %11s %7s %7s %6s %7s %6s %6s %6s %9s %9s %9s\n",
		"site", "visits", "msgsIn", "msgsOut", "bytesIn", "bytesOut", "steps",
		"hits", "miss", "sheds", "spine", "full", "noop", "push", "p50", "p95", "p99")
	var firstErr error
	for _, s := range sites {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		resp, _, err := tr.Call(ctx, "top", s, cluster.Request{Kind: cluster.StatsKind})
		cancel()
		if err != nil {
			fmt.Printf("%-8s down: %v\n", s, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("site %s: %w", s, err)
			}
			continue
		}
		snap, err := obs.DecodeSiteStats(resp.Payload)
		if err != nil {
			return fmt.Errorf("site %s sent a bad stats payload: %w", s, err)
		}
		q := func(p float64) time.Duration {
			return time.Duration(snap.Latency.Quantile(p)).Round(time.Microsecond)
		}
		fmt.Printf("%-8s %8d %8d %8d %11d %11d %11d %7d %7d %6d %7d %6d %6d %6d %9v %9v %9v\n",
			s, snap.Visits, snap.MessagesIn, snap.MessagesOut,
			snap.BytesIn, snap.BytesOut, snap.Steps,
			snap.CacheHits, snap.CacheMisses, snap.Sheds,
			snap.SpineRecomputes, snap.FullRecomputes, snap.NoopUpdates, snap.DeltasPushed,
			q(0.50), q(0.95), q(0.99))
	}
	return firstErr
}
