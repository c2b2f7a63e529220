// Package parbox is a Go implementation of ParBoX — distributed evaluation
// of Boolean XPath queries over fragmented XML documents by partial
// evaluation — reproducing Buneman, Cong, Fan and Kementsietsidis, "Using
// Partial Evaluation in Distributed Query Evaluation", VLDB 2006.
//
// The idea: a document tree is decomposed into fragments stored at
// different sites; a Boolean XPath query is shipped whole to every site,
// which partially evaluates it over its fragments in parallel, treating
// the values at virtual nodes (pointers to remote sub-fragments) as
// Boolean variables. Each site returns compact Boolean formulas — not
// data — and the coordinator solves the resulting system of equations.
// Every site is visited exactly once and total network traffic is
// O(|q|·card(F)), independent of document size.
//
// # Quick start
//
//	doc, _ := parbox.ParseXMLString(`<a><b/><c>hi</c></a>`)
//	forest := parbox.NewForest(doc)
//	forest.Split(doc.Children[0]) // fragment the <b/> subtree
//	sys, _ := parbox.Deploy(forest, parbox.Assignment{0: "S0", 1: "S1"})
//	q, _ := parbox.Prepare(`//b && //c[text() = "hi"]`)
//	res, _ := sys.Exec(context.Background(), q)
//	fmt.Println(res.Answer)
//
// Prepare compiles a query once; System.Exec is the single execution
// entry point, configured with functional options:
//
//	sys.Exec(ctx, q, parbox.WithAlgorithm(parbox.AlgoFullDist)) // pick an algorithm
//	sys.Exec(ctx, q, parbox.WithMode(parbox.ModeSelect))        // locate matching nodes
//	sys.Exec(ctx, q, parbox.WithMode(parbox.ModeCount))         // count them, traffic-free
//	sys.Exec(ctx, q, parbox.WithBatch(q2, q3))                  // many queries, one round
//	sys.Exec(ctx, q, parbox.WithMode(parbox.ModeMaterialize))   // standing view (Result.View)
//	sys.Exec(ctx, q, parbox.WithTimeout(time.Second), parbox.WithTrace(os.Stderr))
//
// Exec is safe for concurrent use: many calls, of any mix of modes and
// algorithms, may run against one System at once. Six algorithms are
// available (AlgoParBoX, AlgoNaiveCentralized, AlgoNaiveDistributed,
// AlgoHybrid, AlgoFullDist, AlgoLazy); ParseAlgorithm maps their surface
// names, Algorithms lists them.
package parbox

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Node is one node of an XML document tree; see NewElement, ParseXML and
// the mutation helpers on the type.
type Node = xmltree.Node

// FragmentID identifies a fragment of a distributed document.
type FragmentID = xmltree.FragmentID

// Forest is a fragmented document: fragments linked by virtual nodes.
type Forest = frag.Forest

// SiteID names a site of the cluster.
type SiteID = frag.SiteID

// Assignment maps fragments to sites (the paper's function h).
type Assignment = frag.Assignment

// SourceTree is S_T: where each fragment lives and how fragments nest —
// the only structure the algorithms need.
type SourceTree = frag.SourceTree

// Report is the outcome and accounting of one distributed Boolean
// evaluation.
type Report = core.Report

// CostModel parameterizes the simulated LAN and CPU speeds.
type CostModel = cluster.CostModel

// MaintenanceCost is the accounting of one view-maintenance operation.
type MaintenanceCost = views.MaintenanceCost

// UpdateOp is a primitive content update (insert/delete/set-text) for
// incremental view maintenance.
type UpdateOp = views.UpdateOp

// Update operation kinds.
const (
	OpInsert  = views.OpInsert
	OpDelete  = views.OpDelete
	OpSetText = views.OpSetText
)

// Algorithm identifies one of the implemented evaluation algorithms; pass
// one to WithAlgorithm. The zero value is AlgoParBoX.
type Algorithm = core.Algorithm

// The implemented algorithms.
const (
	AlgoParBoX           = core.AlgoParBoX
	AlgoNaiveCentralized = core.AlgoNaiveCentralized
	AlgoNaiveDistributed = core.AlgoNaiveDistributed
	AlgoHybrid           = core.AlgoHybrid
	AlgoFullDist         = core.AlgoFullDist
	AlgoLazy             = core.AlgoLazy
)

// Algorithms lists every implemented algorithm.
func Algorithms() []Algorithm { return core.Algorithms() }

// ParseAlgorithm maps an algorithm's surface name ("parbox", "central",
// "distrib", "hybrid", "fulldist", "lazy") to its Algorithm; the error of
// an unknown name lists the valid set.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// NewElement builds an element node with the given label, text content and
// children.
func NewElement(label, text string, children ...*Node) *Node {
	return xmltree.NewElement(label, text, children...)
}

// ParseXML reads an XML document.
func ParseXML(r io.Reader) (*Node, error) { return xmltree.ParseXML(r) }

// ParseXMLString parses an XML document from a string.
func ParseXMLString(s string) (*Node, error) { return xmltree.ParseXMLString(s) }

// WriteXML serializes a document tree as XML.
func WriteXML(w io.Writer, n *Node) error { return xmltree.WriteXML(w, n) }

// NewForest wraps a document as a single-fragment forest; use
// Forest.Split to fragment it further.
func NewForest(root *Node) *Forest { return frag.NewForest(root) }

// EvaluateLocal answers the query at the root of a complete
// (unfragmented) document with the AST interpreter xpath.EvalRaw. It is
// the answer oracle: it shares no code with compilation, the lane kernel,
// bottomUp or solve, so comparing Exec's answers with it checks all of
// them. A tree holding virtual nodes is an error, not an answer.
func EvaluateLocal(root *Node, q *Prepared) (bool, error) {
	if root == nil || len(root.VirtualNodes()) > 0 {
		return false, errors.New("parbox: EvaluateLocal over a fragmented tree")
	}
	return xpath.EvalRaw(q.expr, root), nil
}

// Option configures Deploy.
type Option func(*options)

type options struct {
	cost           cluster.CostModel
	coalesce       bool
	coalesceWindow time.Duration
	coalesceLanes  int
	tripletCache   bool
	// dataDir, when set, roots one durable fragment store per site
	// (WithDurability); residentLimit bounds each site's in-memory
	// fragment table and syncWrites fsyncs every WAL append.
	dataDir       string
	residentLimit int
	syncWrites    bool
	// replication/failover/rebalance configure the replica-aware serving
	// tier (WithReplication, WithFailover, WithRebalancing).
	replication int
	failover    bool
	serveOpts   serve.Options
	rebalance   bool
	rbOpts      serve.RebalanceOptions
	// wrapTransport, when set, wraps the cluster transport the engine and
	// serving tier call through — the fault-injection seam of the failover
	// tests (see withTransportWrapper).
	wrapTransport func(cluster.Transport) cluster.Transport
	// retryPol shapes the per-query retry discipline (WithRetryBudget);
	// hedging/hedgeDelay arm speculative duplicates (WithHedging) and
	// admission bounds per-site concurrent work (WithAdmissionLimit).
	retryPol   backoff.Policy
	hedging    bool
	hedgeDelay time.Duration
	admission  int
	// introspect, when non-empty, serves /metrics, /healthz, /tracez and
	// /debug/pprof on that address (WithIntrospection).
	introspect string
}

// WithCostModel sets the simulated LAN/CPU cost model (latency, bandwidth,
// steps per second, real-sleep mode).
func WithCostModel(m CostModel) Option {
	return func(o *options) { o.cost = m }
}

// WithCoalescedServing makes Boolean ParBoX Exec calls coalesce by
// default: concurrent calls are transparently grouped into shared rounds
// by the scheduler (see WithCoalescing; WithNoCoalesce opts a call out).
// window is how long an open admission window waits for more callers,
// lanes is the fused-QList budget that flushes a window early; zero or
// negative values pick the defaults (DefaultCoalesceWindow,
// DefaultCoalesceLanes).
func WithCoalescedServing(window time.Duration, lanes int) Option {
	return func(o *options) {
		o.coalesce = true
		o.coalesceWindow = window
		o.coalesceLanes = lanes
	}
}

// WithTripletCache enables the versioned per-fragment triplet cache at the
// sites: each site memoizes the encoded triplet of a fragment per
// (fragment version, program fingerprint), so a fragment unchanged since a
// program's last visit answers with zero bottomUp steps and the
// coordinator only re-solves the equation system. View maintenance
// (Update/Split/Merge) bumps the touched fragment's version, invalidating
// exactly that fragment's entries. Hit/miss counts appear in
// Result.CacheHits/CacheMisses and the cluster metrics.
//
// The cache changes per-call step accounting on repeated queries (cached
// fragments report zero computation), which is precisely its point — so it
// is opt-in, keeping the paper-reproduction experiment numbers untouched.
func WithTripletCache() Option {
	return func(o *options) { o.tripletCache = true }
}

// WithReplication makes Deploy store n copies of every fragment, spread
// round-robin over the assignment's sites starting at the fragment's
// assigned one. On its own it only provides placement choice (Replan);
// combined with WithFailover the serving tier routes every round to the
// best live replica and fails failed calls over to survivors.
func WithReplication(n int) Option {
	return func(o *options) { o.replication = n }
}

// WithFailover enables the replica-aware serving tier on a replicated
// deployment (WithReplication or DeployReplicated): per-site health
// tracking fed by probes and every engine call, per-round routing to the
// best live replica, and in-flight failover of failed site calls onto
// surviving replicas. A query loses no answers while every fragment has
// at least one live replica; when one has none, the call fails loudly
// with ErrFragmentUnavailable. Result.Failovers and ServeStats report
// the tier's work; Health reports per-site state.
func WithFailover() Option {
	return func(o *options) { o.failover = true }
}

// WithRebalancing arms the serving tier's live rebalancer (requires
// WithFailover): every interval it compares per-site traffic and
// migrates a hot fragment onto an underloaded replica through the
// ordinary fragment codecs — journaled by the durable store where
// present and version-bumped, so stale cached triplets cannot survive
// the move. interval <= 0 leaves passes manual (System.Rebalance).
func WithRebalancing(interval time.Duration) Option {
	return func(o *options) {
		o.rebalance = true
		o.rbOpts.Interval = interval
	}
}

// WithRetryBudget caps the transparent retries any single query spends
// recovering from transient failures — whole-round retries (which sleep,
// exponential backoff with full jitter, floored at any server-provided
// retry-after hint) and per-call failover re-placements draw from the
// same budget, so a struggling deployment sees per-query retry traffic
// bounded by n instead of multiplying across layers. 0 picks the default
// (4); negative removes the cap (the pre-budget behavior, bounded only
// by the per-round site-exclusion sets).
func WithRetryBudget(n int) Option {
	return func(o *options) { o.retryPol.Budget = n }
}

// WithHedging arms speculative retries on a WithFailover deployment:
// a pure scatter call on fragments with a second live replica races a
// duplicate on the next-best site once the primary has been quiet past
// the hedge delay — the first answer wins and the loser is cancelled,
// cutting tail latency when a replica is slow but not dead. delay fixes
// the hedge timer; 0 arms it adaptively at the primary site's observed
// latency p95 (no hedge fires until the site has been observed). Only
// the winning attempt of a hedged pair is accounted; Result.Hedges and
// ServeStats report the hedging work.
func WithHedging(delay time.Duration) Option {
	return func(o *options) { o.hedging = true; o.hedgeDelay = delay }
}

// WithAdmissionLimit bounds every site to n concurrently admitted
// requests: work beyond the bound is shed immediately with a retryable
// overload error carrying a retry-after hint (honored by the retry
// backoff), so a burst degrades into bounded queueing plus fast sheds
// instead of unbounded pile-up. Health probes and the serving tier's
// control plane are exempt — a saturated site still answers probes.
// Shed counts appear in the cluster metrics (Sheds).
func WithAdmissionLimit(n int) Option {
	return func(o *options) { o.admission = n }
}

// withServeOptions overrides the serving tier's health/probe tuning —
// a test hook (deterministic tests disable the background prober and
// drive CheckHealth explicitly).
func withServeOptions(so serve.Options) Option {
	return func(o *options) { o.serveOpts = so }
}

// withTransportWrapper routes the engine and serving tier through a
// wrapped transport — the fault-injection seam of the failover tests.
func withTransportWrapper(w func(cluster.Transport) cluster.Transport) Option {
	return func(o *options) { o.wrapTransport = w }
}

// System is a deployed fragmented document: an in-process cluster of
// sites, each holding its assigned fragments and serving the ParBoX
// protocol. All methods are safe for concurrent use.
type System struct {
	cluster *cluster.Cluster

	// opts are the options the system was built with; setupSite applies
	// their per-site part to every site, AddSite's included.
	opts options

	// sched is the coalescing scheduler; WithCoalescedServing routes plain
	// Boolean Exec calls through it without WithCoalescing.
	sched *scheduler

	// stores holds the per-site durable fragment stores of a
	// WithDurability deployment (nil otherwise), guarded by mu: AddSite
	// adds to it, Close/Checkpoint drain it.
	stores map[SiteID]*store.Store

	// tier is the replica-aware serving tier of a WithFailover
	// deployment (nil otherwise); trans is the transport the engine calls
	// through: the cluster, or a test's wrapper around it. Both are set
	// at deployment and never change.
	tier  *serve.Tier
	trans cluster.Transport

	// obsRing retains recent traced Exec calls for /tracez; httpSrv and
	// httpLn are the introspection server of a WithIntrospection
	// deployment (all nil otherwise). Set at deployment, closed by Close.
	obsRing *obs.TraceRing
	httpSrv *http.Server
	httpLn  net.Listener

	// mu guards engine, which Replan swaps, subs, which the first
	// Subscribe creates, and stores; forest/replicas are retained for
	// Replan on replicated deployments and never change.
	mu       sync.RWMutex
	engine   *core.Engine
	forest   *Forest
	replicas ReplicaMap
	subs     *subManager
}

// SchedulerStats returns the coalescing scheduler's cumulative counters
// (rounds run, queries served, flush reasons) since deployment.
func (s *System) SchedulerStats() SchedulerStats { return s.sched.stats() }

// eng returns the current engine; Exec reads it once per call, so a
// concurrent Replan affects only subsequent calls.
func (s *System) eng() *core.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engine
}

// Deploy places a forest's fragments onto an in-process cluster per the
// assignment (every fragment must be assigned) and returns the system
// ready for queries. The coordinator is the site holding the root
// fragment.
func Deploy(forest *Forest, assign Assignment, opts ...Option) (*System, error) {
	o := newOptions(opts)
	if o.replication > 1 {
		replicas, err := replicateAssignment(forest, assign, o.replication)
		if err != nil {
			return nil, err
		}
		// PlaceFirst keeps the caller's assignment as the primary copy.
		return deployReplicated(forest, replicas, PlaceFirst, o)
	}
	if err := o.check(false); err != nil {
		return nil, err
	}
	c := cluster.New(o.cost)
	eng, err := core.Deploy(c, forest, assign)
	if err != nil {
		return nil, err
	}
	s := &System{cluster: c, engine: eng}
	abort := func() {}
	if o.dataDir != "" {
		if s.stores, abort, err = openSeedStores(o, c.Sites()); err != nil {
			return nil, err
		}
	}
	if err := s.assemble(o); err != nil {
		abort()
		return nil, err
	}
	return s, nil
}

// newOptions applies opts over the defaults.
func newOptions(opts []Option) options {
	o := options{cost: cluster.DefaultCostModel()}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// check refuses the option combinations a system cannot honour, the
// same way on every entry point; replicated says whether the system
// keeps replicas.
func (o *options) check(replicated bool) error {
	switch {
	case o.residentLimit > 0 && o.dataDir == "":
		return errors.New("parbox: WithResidentFragments requires WithDurability (evicted fragments must have a store to reload from)")
	case replicated && o.dataDir != "":
		return errors.New("parbox: WithDurability is not supported for replicated deployments")
	case !replicated && o.failover:
		return errors.New("parbox: WithFailover requires replicas (WithReplication(n >= 2) or DeployReplicated)")
	case o.rebalance && !o.failover:
		return errors.New("parbox: WithRebalancing requires WithFailover")
	case o.hedging && !o.failover:
		return errors.New("parbox: WithHedging requires WithFailover (a hedge needs a second live replica)")
	}
	return nil
}

// assemble finishes a System whose cluster and engine an entry point
// placed — with the stores of a durable system or the forest and
// replicas of a replicated one. It sets up every site (setupSite), then
// the engine's settings (transport wrapper, triplet cache, retry policy,
// serving tier), the scheduler and introspection. Deploy,
// DeployReplicated and Restore all end here.
func (s *System) assemble(o options) error {
	s.opts = o
	for _, id := range s.cluster.Sites() {
		if err := s.setupSite(id, s.stores[id]); err != nil {
			return err
		}
	}
	s.trans = s.cluster
	if o.wrapTransport != nil {
		// Route the engine (and below, the tier's probes) through the
		// wrapper, so injected faults hit exactly what queries use.
		s.trans = o.wrapTransport(s.cluster)
		s.engine = core.NewEngine(s.trans, s.engine.Coordinator(), s.engine.SourceTree(), s.cluster.Cost())
	}
	s.engine.EnableTripletCache(o.tripletCache)
	s.engine.SetRetryPolicy(o.retryPol)
	if o.failover {
		so := o.serveOpts
		if o.hedging {
			so.Hedging, so.HedgeDelay = true, o.hedgeDelay
		}
		s.tier = serve.NewTier(s.trans, s.engine.Coordinator(), s.forest, s.replicas, so)
		s.tier.AttachMetrics(s.cluster.Metrics())
		if o.rebalance {
			s.tier.StartRebalancer(o.rbOpts)
		}
		s.engine.SetTier(s.tier)
	}
	s.sched = newScheduler(s, o.coalesceWindow, o.coalesceLanes)
	if o.introspect != "" {
		if err := s.startIntrospection(o.introspect); err != nil {
			return err
		}
	}
	if s.tier != nil {
		s.tier.Start()
	}
	return nil
}

// setupSite sets site id up the way every site is (serve.SetupSite):
// the whole site protocol, the system's admission limit, and on a
// durable system the site's store st.
func (s *System) setupSite(id SiteID, st *store.Store) error {
	site, _ := s.cluster.Site(id)
	return serve.SetupSite(site, s.cluster, s.cluster.Cost(), s.opts.admission, st, s.opts.residentLimit)
}

// AddSite creates an additional, initially empty site, set up like every
// deployed one — the whole protocol, admission control, and on a durable
// system a store of its own — e.g. as the target of a View.Split
// re-assignment. A site that already exists is an error.
func (s *System) AddSite(id SiteID) error {
	// mu orders AddSite with itself and with Close and Checkpoint.
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cluster.Site(id); ok {
		return fmt.Errorf("parbox: site %s already exists", id)
	}
	var st *store.Store
	if s.opts.dataDir != "" {
		if s.stores == nil {
			return errors.New("parbox: AddSite on a closed system")
		}
		stores, _, err := openSeedStores(s.opts, []SiteID{id})
		if err != nil {
			return err
		}
		st = stores[id]
		s.stores[id] = st
	}
	s.cluster.AddSite(id)
	return s.setupSite(id, st)
}

// SelectionResult, BatchResult and CountResult are the per-mode names of
// the one Report every evaluation returns: a selection fills Paths and
// Count, a batch Answers, a count Count and PerSite.
type (
	SelectionResult = core.Report
	BatchResult     = core.Report
	CountResult     = core.Report
)

// SourceTree returns the deployed document's source tree.
func (s *System) SourceTree() *SourceTree { return s.eng().SourceTree() }

// Coordinator returns the coordinating site (the root fragment's site).
func (s *System) Coordinator() SiteID { return s.eng().Coordinator() }

// TotalBytes returns the cumulative remote traffic since deployment (or
// the last ResetMetrics).
func (s *System) TotalBytes() int64 { return s.cluster.Metrics().TotalBytes() }

// Sheds returns the cumulative number of requests admission control shed
// since deployment (or the last ResetMetrics); zero without
// WithAdmissionLimit.
func (s *System) Sheds() int64 { return s.cluster.Metrics().TotalSheds() }

// DeadlineExpired returns the cumulative number of calls that hit a
// propagated deadline since deployment (or the last ResetMetrics).
func (s *System) DeadlineExpired() int64 { return s.cluster.Metrics().TotalDeadlineExpired() }

// ResetMetrics makes the current counts the zero of TotalBytes, Sheds,
// DeadlineExpired and MetricsTable; the sites' own counters (and
// /metrics) keep counting.
func (s *System) ResetMetrics() { s.cluster.Metrics().Reset() }

// MetricsTable renders the per-site accounting as a table.
func (s *System) MetricsTable() string { return s.cluster.Metrics().String() }

// View is a materialized, incrementally maintained Boolean XPath view.
type View struct {
	v *views.View
}

// Answer returns the cached answer.
func (v *View) Answer() bool { return v.v.Answer() }

// Update applies content updates to one fragment and incrementally
// maintains the answer; only that fragment's site is contacted.
func (v *View) Update(ctx context.Context, id FragmentID, ops []UpdateOp) (MaintenanceCost, error) {
	return v.v.Update(ctx, id, ops)
}

// Split moves the subtree at path (child indices from the fragment root)
// into a new fragment assigned to target; the answer is unaffected.
func (v *View) Split(ctx context.Context, id FragmentID, path []int, target SiteID) (FragmentID, MaintenanceCost, error) {
	return v.v.Split(ctx, id, path, target)
}

// Merge absorbs sub-fragment child into fragment id.
func (v *View) Merge(ctx context.Context, id, child FragmentID) (MaintenanceCost, error) {
	return v.v.Merge(ctx, id, child)
}

// PathOf computes the child-index path addressing a node within its
// fragment, for use with View.Update and View.Split.
func PathOf(node *Node) []int { return views.PathOf(node) }

// ReplicaMap lists, per fragment, every site holding a copy.
type ReplicaMap = core.ReplicaMap

// PlacementStrategy selects replicas before a query runs.
type PlacementStrategy = core.PlacementStrategy

// Replica placement strategies.
const (
	// PlaceFirst uses each fragment's first listed replica.
	PlaceFirst = core.PlaceFirst
	// PlaceMinSites minimizes the number of sites consulted.
	PlaceMinSites = core.PlaceMinSites
	// PlaceBalanced minimizes the largest per-site data share (the
	// paper's parallel-computation bound).
	PlaceBalanced = core.PlaceBalanced
)

// ErrFragmentUnavailable is returned (wrapped) when a query needs a
// fragment none of whose replicas is live: under WithFailover answers
// are exactly correct or loudly absent, never silently partial. Test
// with errors.Is.
var ErrFragmentUnavailable = core.ErrFragmentUnavailable

// SiteHealth is one site's health snapshot as the serving tier sees it.
type SiteHealth = serve.SiteStatus

// HealthState is a site's up/suspect/down classification.
type HealthState = serve.State

// The health states.
const (
	// SiteUp: serving normally, first-choice replica.
	SiteUp = serve.Up
	// SiteSuspect: recently failed (or recovering); still routable but
	// loses ties against Up replicas.
	SiteSuspect = serve.Suspect
	// SiteDown: excluded from routing until a probe succeeds.
	SiteDown = serve.Down
)

// ServeStats are the serving tier's cumulative counters (plans,
// reassignments, probes, migrations).
type ServeStats = serve.Stats

// Health returns the per-site health snapshot of a WithFailover
// deployment (nil otherwise).
func (s *System) Health() map[SiteID]SiteHealth {
	if s.tier == nil {
		return nil
	}
	return s.tier.Health()
}

// ServeStats returns the serving tier's counters (zero without
// WithFailover).
func (s *System) ServeStats() ServeStats {
	if s.tier == nil {
		return ServeStats{}
	}
	return s.tier.Stats()
}

// CheckHealth probes every site once, synchronously, updating the health
// snapshot — the deterministic alternative to waiting out the background
// prober after a known outage or recovery. No-op without WithFailover.
func (s *System) CheckHealth(ctx context.Context) {
	if s.tier != nil {
		s.tier.ProbeNow(ctx)
	}
}

// Rebalance runs one serving-tier rebalancing pass and reports how many
// fragments moved; see WithRebalancing for the policy.
func (s *System) Rebalance(ctx context.Context) (int, error) {
	if s.tier == nil {
		return 0, fmt.Errorf("parbox: Rebalance requires WithFailover")
	}
	return s.tier.RebalanceOnce(ctx)
}

// Replicas returns the current replica map of a replicated deployment —
// the live routing table under WithFailover (the rebalancer moves
// entries), the deploy-time map otherwise, nil for unreplicated systems.
func (s *System) Replicas() ReplicaMap {
	if s.tier != nil {
		return s.tier.Replicas()
	}
	if s.replicas == nil {
		return nil
	}
	out := make(ReplicaMap, len(s.replicas))
	for id, sites := range s.replicas {
		out[id] = append([]SiteID(nil), sites...)
	}
	return out
}

// DeployReplicated stores every replica of every fragment at its sites
// and returns a system whose queries run against the placement chosen by
// the strategy. Because ParBoX never moves data, switching strategies is
// free: call Replan.
func DeployReplicated(forest *Forest, replicas ReplicaMap, strategy PlacementStrategy, opts ...Option) (*System, error) {
	o := newOptions(opts)
	if o.replication != 0 {
		return nil, errors.New("parbox: DeployReplicated takes its replicas from the map; WithReplication does not apply")
	}
	return deployReplicated(forest, replicas, strategy, o)
}

// replicateAssignment expands an Assignment into a ReplicaMap with n
// copies of every fragment, spread round-robin over the assignment's
// distinct sites starting at the fragment's assigned one.
func replicateAssignment(forest *Forest, assign Assignment, n int) (ReplicaMap, error) {
	seen := make(map[SiteID]bool, len(assign))
	var distinct []SiteID
	for _, site := range assign {
		if !seen[site] {
			seen[site] = true
			distinct = append(distinct, site)
		}
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	if n > len(distinct) {
		return nil, fmt.Errorf("parbox: WithReplication(%d) exceeds the assignment's %d distinct sites", n, len(distinct))
	}
	idx := make(map[SiteID]int, len(distinct))
	for i, site := range distinct {
		idx[site] = i
	}
	replicas := make(ReplicaMap, forest.Count())
	for _, id := range forest.IDs() {
		site, ok := assign[id]
		if !ok {
			return nil, fmt.Errorf("parbox: fragment %d is unassigned", id)
		}
		start := idx[site]
		for k := 0; k < n; k++ {
			replicas[id] = append(replicas[id], distinct[(start+k)%len(distinct)])
		}
	}
	return replicas, nil
}

// deployReplicated is the shared replicated-deployment path of Deploy
// (WithReplication) and DeployReplicated.
func deployReplicated(forest *Forest, replicas ReplicaMap, strategy PlacementStrategy, o options) (*System, error) {
	if err := o.check(true); err != nil {
		return nil, err
	}
	c := cluster.New(o.cost)
	eng, err := core.DeployReplicated(c, forest, replicas, strategy)
	if err != nil {
		return nil, err
	}
	s := &System{cluster: c, engine: eng, forest: forest, replicas: replicas}
	if err := s.assemble(o); err != nil {
		return nil, err
	}
	return s, nil
}

// Replan switches a replicated system to a different placement strategy
// without moving any data: the new engine is a copy of the current one
// over the new placement. Exec calls already in flight finish against
// the placement they started with.
func (s *System) Replan(strategy PlacementStrategy) error {
	if s.replicas == nil {
		return fmt.Errorf("parbox: Replan requires a system deployed with DeployReplicated")
	}
	eng, err := s.eng().Replan(s.forest, s.replicas, strategy)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.engine = eng
	s.mu.Unlock()
	return nil
}

// DefaultCostModel returns the cost model mimicking the paper's testbed.
func DefaultCostModel() CostModel { return cluster.DefaultCostModel() }

// BuildSourceTree derives a source tree from a forest and an assignment,
// for callers wiring their own transports (see cmd/parbox-site for the
// TCP deployment).
func BuildSourceTree(f *Forest, assign Assignment) (*SourceTree, error) {
	return frag.BuildSourceTree(f, assign)
}

// ValidateQuery parses a query and reports the error, for CLI input
// checking.
func ValidateQuery(src string) error {
	_, err := xpath.Parse(src)
	if err != nil {
		return fmt.Errorf("invalid query: %w", err)
	}
	return nil
}
