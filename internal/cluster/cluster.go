// Package cluster is the distributed substrate the ParBoX algorithms run
// on. It replaces the paper's "10 Linux machines distributed over a local
// LAN" with an in-process simulated LAN — sites holding fragments,
// request/response messaging with a configurable latency + bandwidth cost
// model, and per-site accounting of visits, bytes and computation steps —
// plus a real TCP transport (see tcp.go) speaking the same wire format, so
// the same algorithm code runs over actual sockets.
//
// Design notes:
//
//   - Handlers execute in the caller's goroutine (in-process transport);
//     parallelism is created by the algorithms fanning out goroutines, just
//     as the coordinator contacts sites concurrently in the paper.
//   - "Wall time" on a many-core host approximates the paper's parallelism
//     but is noisy; every call therefore also reports a deterministic
//     simulated cost derived from the byte counts and a steps-per-second
//     CPU model. The experiment harness reports the deterministic times.
//   - A visit is a request handled by a site on behalf of another site;
//     local (from == to) work is free, matching the paper's accounting in
//     which the coordinator's own fragment costs no communication.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// Request is a message from one site to another: an operation kind and an
// opaque payload (the algorithms define their own payload codecs).
type Request struct {
	Kind    string
	Payload []byte
}

// Response carries the reply payload plus accounting metadata: Steps is the
// number of node×subquery computation units the handler performed (the
// paper's total-computation measure; in a real deployment each site would
// report its own CPU time the same way). CacheHits/CacheMisses count, for
// handlers that consult the site's versioned triplet cache, how many
// requested fragments answered from cache versus required a bottomUp pass;
// both travel the wire so the coordinator's accounting matches over TCP.
type Response struct {
	Payload     []byte
	Steps       int64
	CacheHits   int64
	CacheMisses int64
	// Spans piggybacks the server-side trace spans of a traced request
	// (wire v2 encodes them after the counters); empty when tracing is
	// off. In-process transports leave it empty and record straight
	// into the caller's collector instead.
	Spans []obs.Span
}

// Handler processes one request at a site.
type Handler func(ctx context.Context, site *Site, req Request) (Response, error)

// CallCost is the per-call accounting returned alongside every response.
type CallCost struct {
	ReqBytes, RespBytes int
	// Net is the modeled network time for the round trip (two latencies
	// plus transfer of both payloads); zero for local calls.
	Net time.Duration
	// Compute is the modeled handler time (Steps / StepsPerSecond).
	Compute time.Duration
	// Steps echoes the handler's reported computation units.
	Steps int64
	// Wall is the measured handler duration.
	Wall time.Duration
}

// Total returns the modeled end-to-end duration of the call.
func (c CallCost) Total() time.Duration { return c.Net + c.Compute }

// CostModel parameterizes the simulated LAN and CPUs.
type CostModel struct {
	// Latency is charged once per message (so twice per call).
	Latency time.Duration
	// BytesPerSecond is the link bandwidth for payload transfer.
	BytesPerSecond float64
	// StepsPerSecond converts handler computation units to modeled time.
	StepsPerSecond float64
	// MessageOverhead is added to every payload's size (framing).
	MessageOverhead int
	// RealDelays, when set, makes the in-process transport actually sleep
	// for the modeled network time, so wall-clock measurements include
	// transfer costs. Off by default (tests, benchmarks use modeled time).
	RealDelays bool
}

// DefaultCostModel is calibrated against the paper's 2006 testbed so the
// reproduced figures keep its compute-to-transfer ratios at this
// repository's data scale (2500 nodes and ≈75 encoded KB per paper-MB):
//
//   - Fig. 7 reports ≈6.8 s to evaluate the 50 MB document (≈1M
//     node×subquery steps here) → StepsPerSecond = 150e3;
//   - shipping the 45 MB remainder cost ≈6.7 s (≈3.4 MB on this wire) →
//     BytesPerSecond = 500e3;
//   - LAN round trips were sub-millisecond → Latency = 0.5 ms one way.
func DefaultCostModel() CostModel {
	return CostModel{
		Latency:         500 * time.Microsecond,
		BytesPerSecond:  500e3,
		StepsPerSecond:  150e3,
		MessageOverhead: 16,
	}
}

// TransferTime models moving n payload bytes across one link.
func (m CostModel) TransferTime(n int) time.Duration {
	if m.BytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(n+m.MessageOverhead) / m.BytesPerSecond * float64(time.Second))
}

// ComputeTime models steps computation units on one site's CPU.
func (m CostModel) ComputeTime(steps int64) time.Duration {
	if m.StepsPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(steps) / m.StepsPerSecond * float64(time.Second))
}

// RoundTrip models a request/response exchange with the given payload
// sizes.
func (m CostModel) RoundTrip(reqBytes, respBytes int) time.Duration {
	return 2*m.Latency + m.TransferTime(reqBytes) + m.TransferTime(respBytes)
}

// Transport lets algorithm code send a request from one site to another,
// independent of whether sites are goroutines or remote processes.
type Transport interface {
	Call(ctx context.Context, from, to frag.SiteID, req Request) (Response, CallCost, error)
}

// Reply is the outcome of one asynchronous call.
type Reply struct {
	Resp Response
	Cost CallCost
	Err  error
}

// AsyncTransport is implemented by transports that can keep many calls
// in flight at once. Go issues a call without blocking on its round
// trip; the reply is delivered exactly once on the returned channel
// (buffered, so the transport never blocks on a slow receiver). A
// context that expires resolves only its own call — shared connection
// state is never torn down by one caller's cancellation.
type AsyncTransport interface {
	Transport
	Go(ctx context.Context, from, to frag.SiteID, req Request) <-chan Reply
}

// DeltaSubscriber is the optional transport capability of delivering
// server-pushed maintenance deltas: fn receives every payload site `to`
// publishes through Site.PushDelta, until cancel is called. The
// in-process cluster registers fn on the site directly; the TCP
// transport subscribes its multiplexed connection (wire v2 push frames).
// fn runs on a delivery goroutine and must be cheap and non-blocking.
type DeltaSubscriber interface {
	SubscribeDeltas(ctx context.Context, from, to frag.SiteID, fn func([]byte)) (cancel func(), err error)
}

// Go issues a call asynchronously on any Transport: natively when tr
// implements AsyncTransport (the TCP transport pipelines it onto the
// peer's multiplexed connection), otherwise by running the synchronous
// Call in a goroutine. Wrapper transports (fault injection) fall to the
// goroutine path and so keep observing every call.
func Go(ctx context.Context, tr Transport, from, to frag.SiteID, req Request) <-chan Reply {
	if at, ok := tr.(AsyncTransport); ok {
		return at.Go(ctx, from, to, req)
	}
	return goViaCall(ctx, tr, from, to, req)
}

// goViaCall adapts a synchronous Call to the async contract: the shared
// fallback of the package-level Go and of transports whose async path
// is simply "Call in a goroutine" (the in-memory cluster).
func goViaCall(ctx context.Context, tr Transport, from, to frag.SiteID, req Request) <-chan Reply {
	ch := make(chan Reply, 1)
	go func() {
		resp, cost, err := tr.Call(ctx, from, to, req)
		ch <- Reply{Resp: resp, Cost: cost, Err: err}
	}()
	return ch
}

// FragmentStore is the durable backing a site may be attached to
// (implemented by internal/store): every fragment add, removal and
// in-place mutation is logged through it, cached triplet encodings are
// persisted for warm restarts, and non-resident fragments are loaded back
// on demand. Implementations must be safe for concurrent use.
type FragmentStore interface {
	// PutFragment records the fragment's full content at the version.
	PutFragment(f *frag.Fragment, version uint64) error
	// DeleteFragment records a removal; the version counter must survive.
	DeleteFragment(id xmltree.FragmentID, version uint64) error
	// PutTriplet records a triplet-cache entry (fragment version, program
	// fingerprint, encoded triplet) for warm-cache restarts.
	PutTriplet(id xmltree.FragmentID, version, fp uint64, enc []byte) error
	// LoadFragment returns the latest persisted content of a live
	// fragment; ok is false for unknown or removed fragments.
	LoadFragment(id xmltree.FragmentID) (*frag.Fragment, uint64, bool, error)
}

// Site is one machine of the cluster: fragment storage, registered
// handlers, and a small keyed store for algorithm state (cached source
// trees, materialized view triplets, ...).
type Site struct {
	id frag.SiteID

	mu        sync.RWMutex
	handlers  map[string]Handler
	fragments map[xmltree.FragmentID]*frag.Fragment
	// versions holds each stored fragment's monotonic version: bumped on
	// every add, removal and in-place mutation (view maintenance calls
	// BumpFragment). Entries survive removal so a re-added fragment keeps
	// counting up — version-keyed caches must never see a number reused.
	versions map[xmltree.FragmentID]uint64
	state    map[string]any

	// store, when attached, journals every fragment mutation and backs the
	// bounded resident table: fragments holds at most maxResident entries
	// (0 = unbounded), evicting by least-recent use (lastUse, stamped from
	// clock); Fragment reloads evicted entries from the store on demand.
	// storeErr is the first persistence failure, surfaced via StoreErr.
	store       FragmentStore
	maxResident int
	clock       uint64
	lastUse     map[xmltree.FragmentID]uint64
	storeErr    error

	// admit, when set, is the site's admission controller (SetAdmission):
	// dispatch sheds requests past its watermarks with an OverloadError
	// instead of queueing them. admitEstimate prices requests for the
	// cost watermark (SetAdmissionEstimator).
	admit         *admission
	admitEstimate func(req Request) int64
	admitExempt   map[string]bool

	// stats is the site's always-on observability counter block
	// (visits, messages, bytes, steps, cache, sheds + a latency
	// histogram), updated lock-free in dispatch — the only per-site
	// ledger: Cluster.Metrics reads it, and /metrics and the obs.stats
	// RPC export it. ring retains recently traced requests for /tracez.
	stats obs.SiteStats
	ring  *obs.TraceRing

	// deltaSubs are the site's maintenance-delta observers (standing
	// subscriptions): every PushDelta payload is fanned out to each
	// registered function. Local subscribers register directly; the TCP
	// server registers one forwarder per subscribed connection.
	deltaMu   sync.Mutex
	deltaSubs map[uint64]func([]byte)
	deltaNext uint64
}

// NewSite creates a detached site (used directly by the TCP server; the
// in-process cluster creates sites via AddSite).
func NewSite(id frag.SiteID) *Site {
	return &Site{
		id:        id,
		handlers:  make(map[string]Handler),
		fragments: make(map[xmltree.FragmentID]*frag.Fragment),
		versions:  make(map[xmltree.FragmentID]uint64),
		state:     make(map[string]any),
		ring:      obs.NewTraceRing(0),
	}
}

// Stats returns the site's observability counters.
func (s *Site) Stats() *obs.SiteStats { return &s.stats }

// SubscribeDeltas registers fn to receive every maintenance delta the
// site publishes (PushDelta) and returns a cancel function. fn is called
// synchronously from the publishing handler, possibly from many
// goroutines at once — it must be cheap and non-blocking (hand the
// payload to a buffered channel or queue).
func (s *Site) SubscribeDeltas(fn func([]byte)) (cancel func()) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	if s.deltaSubs == nil {
		s.deltaSubs = make(map[uint64]func([]byte))
	}
	id := s.deltaNext
	s.deltaNext++
	s.deltaSubs[id] = fn
	return func() {
		s.deltaMu.Lock()
		defer s.deltaMu.Unlock()
		delete(s.deltaSubs, id)
	}
}

// PushDelta publishes one encoded maintenance delta to every registered
// observer and returns how many were notified. The payload must be
// immutable — observers on other connections read it concurrently.
func (s *Site) PushDelta(payload []byte) int {
	s.deltaMu.Lock()
	fns := make([]func([]byte), 0, len(s.deltaSubs))
	for _, fn := range s.deltaSubs {
		fns = append(fns, fn)
	}
	s.deltaMu.Unlock()
	for _, fn := range fns {
		fn(payload)
	}
	s.stats.DeltasPushed.Add(uint64(len(fns)))
	return len(fns)
}

// TraceRing returns the site's retained-trace ring (/tracez).
func (s *Site) TraceRing() *obs.TraceRing { return s.ring }

// ID returns the site's name.
func (s *Site) ID() frag.SiteID { return s.id }

// Handle registers a handler for a request kind, replacing any previous
// one.
func (s *Site) Handle(kind string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[kind] = h
}

// HandlerFor returns the registered handler for a kind, if any —
// middleware (metering, modeled-delay emulation in benchmarks) wraps an
// existing handler by reading it here and re-registering with Handle.
func (s *Site) HandlerFor(kind string) (Handler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.handlers[kind]
	return h, ok
}

// AddFragment stores a fragment at the site and bumps its version. With a
// store attached, the content is journaled and the resident table may
// evict a colder fragment to stay within its bound.
func (s *Site) AddFragment(f *frag.Fragment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fragments[f.ID] = f
	s.versions[f.ID]++
	if s.store != nil {
		s.touchLocked(f.ID)
		s.noteStoreErr(s.store.PutFragment(f, s.versions[f.ID]))
		s.evictLocked(f.ID)
	}
}

// RemoveFragment deletes a fragment from the site's storage. Its version
// counter is bumped, not deleted, so cached triplets of the departed
// fragment can never be mistaken for a later incarnation's.
func (s *Site) RemoveFragment(id xmltree.FragmentID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.fragments, id)
	s.versions[id]++
	if s.store != nil {
		delete(s.lastUse, id)
		s.noteStoreErr(s.store.DeleteFragment(id, s.versions[id]))
	}
}

// BumpFragment advances a fragment's version after an in-place mutation of
// its tree (view maintenance: content updates, split, merge) and returns
// the new version. Every cached triplet of the fragment is thereby
// invalidated — cache keys embed the version. The caller passes the
// mutated fragment itself: it is re-installed in the resident table (the
// mutated tree is authoritative even if the table evicted the fragment
// while the handler held it) and, with a store attached, re-journaled at
// the new version — so an acknowledged mutation can never be lost to a
// concurrent eviction.
func (s *Site) BumpFragment(f *frag.Fragment) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[f.ID]++
	v := s.versions[f.ID]
	s.fragments[f.ID] = f
	if s.store != nil {
		s.touchLocked(f.ID)
		s.noteStoreErr(s.store.PutFragment(f, v))
		s.evictLocked(f.ID)
	}
	return v
}

// SetFragmentParent rewrites a stored fragment's Parent pointer and, with
// a store attached, re-journals it at its CURRENT version: the fragment's
// content is unchanged, so cached triplets keyed by (id, version) stay
// valid — only the durable source-tree edge moves. Split handlers use it
// to persist the re-parenting of sub-fragments under a freshly split-off
// fragment; Restore then trusts the journaled Parent instead of
// recomputing it from virtual-node structure. Returns false when the site
// does not store the fragment.
func (s *Site) SetFragmentParent(id, parent xmltree.FragmentID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.fragments[id]
	if !ok && s.store != nil {
		lf, _, found, err := s.store.LoadFragment(id)
		if err != nil {
			s.noteStoreErr(err)
			return false
		}
		if !found {
			return false
		}
		f, ok = lf, true
		s.fragments[id] = f
	}
	if !ok {
		return false
	}
	if f.Parent == parent {
		return true
	}
	f.Parent = parent
	if s.store != nil {
		s.touchLocked(id)
		s.noteStoreErr(s.store.PutFragment(f, s.versions[id]))
		s.evictLocked(id)
	}
	return true
}

// FragmentVersion returns the fragment's current version (0 if the site
// has never stored it).
func (s *Site) FragmentVersion(id xmltree.FragmentID) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versions[id]
}

// Fragment returns a stored fragment. With a store attached, a fragment
// evicted from the resident table is transparently reloaded from disk (at
// its exact persisted version — loads never bump). Resident hits stay on
// the read lock unless a residency bound is set (only then is there LRU
// state to stamp), so the evaluation pool's fan-out does not serialize.
// A disk failure during a reload is reported as a miss — handlers answer
// "does not store fragment" — with the underlying cause recorded in
// StoreErr, which Checkpoint/Close surface.
func (s *Site) Fragment(id xmltree.FragmentID) (*frag.Fragment, bool) {
	s.mu.RLock()
	f, ok := s.fragments[id]
	st, bounded := s.store, s.maxResident > 0
	s.mu.RUnlock()
	if ok && !bounded {
		return f, true
	}
	if st == nil {
		return f, ok
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.fragments[id]; ok {
		s.touchLocked(id)
		return f, true
	}
	f, _, ok, err := st.LoadFragment(id)
	if err != nil {
		s.noteStoreErr(err)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	s.fragments[id] = f
	s.touchLocked(id)
	s.evictLocked(id)
	return f, true
}

// AttachStore journals the site's fragment lifecycle through fs and bounds
// the resident-fragment table to maxResident entries (0 = unbounded),
// lazily reloading evicted fragments on access. The bound must exceed the
// number of fragments mutated concurrently; already-resident fragments
// are evicted down to the bound immediately. Attach during setup, before
// the site serves requests.
func (s *Site) AttachStore(fs FragmentStore, maxResident int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = fs
	s.maxResident = maxResident
	s.lastUse = make(map[xmltree.FragmentID]uint64, len(s.fragments))
	for id := range s.fragments {
		s.touchLocked(id)
	}
	s.evictLocked(noEvictKeep)
}

// noEvictKeep is an id no fragment can have (frag.NoParent is -1), used
// when eviction protects nothing.
const noEvictKeep = xmltree.FragmentID(-2)

// touchLocked stamps the fragment as most recently used.
func (s *Site) touchLocked(id xmltree.FragmentID) {
	if s.lastUse == nil {
		s.lastUse = make(map[xmltree.FragmentID]uint64)
	}
	s.clock++
	s.lastUse[id] = s.clock
}

// evictLocked drops least-recently-used fragments (never keep) until the
// resident table fits its bound. Evicted content is always reloadable:
// every mutation journals the full fragment before eviction can see it —
// which is exactly why eviction stops once a journal write has failed:
// with the store sticky-failed, disk may lag the resident trees, and
// evicting would let a later load resurrect pre-mutation content at a
// bumped version. A site with a broken store serves from memory only.
func (s *Site) evictLocked(keep xmltree.FragmentID) {
	if s.maxResident <= 0 || s.storeErr != nil {
		return
	}
	for len(s.fragments) > s.maxResident {
		var victim xmltree.FragmentID
		best := ^uint64(0)
		found := false
		for id := range s.fragments {
			if id == keep {
				continue
			}
			if u := s.lastUse[id]; u < best {
				best, victim, found = u, id, true
			}
		}
		if !found {
			return
		}
		delete(s.fragments, victim)
		delete(s.lastUse, victim)
	}
}

// RestoreVersion installs a recovered fragment-version counter exactly,
// without journaling — the recovery path's counterpart to the bump in
// AddFragment. Version-keyed caches rely on these counters never moving
// backwards, so restore them before the site serves.
func (s *Site) RestoreVersion(id xmltree.FragmentID, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[id] = version
}

// ResidentFragments returns how many fragments are currently in memory
// (at most the AttachStore bound when a store is attached).
func (s *Site) ResidentFragments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.fragments)
}

// PersistTriplet journals a triplet-cache entry when a store is attached;
// otherwise it is a no-op. The serving layer calls it alongside every
// cache fill so a restart can warm-start the cache.
func (s *Site) PersistTriplet(id xmltree.FragmentID, version, fp uint64, enc []byte) {
	s.mu.RLock()
	fs := s.store
	s.mu.RUnlock()
	if fs == nil {
		return
	}
	if err := fs.PutTriplet(id, version, fp, enc); err != nil {
		s.mu.Lock()
		s.noteStoreErr(err)
		s.mu.Unlock()
	}
}

// StoreErr returns the first persistence failure the site observed, if
// any. A site with a failing store keeps serving from memory; operators
// check this (and the store's own sticky error) at checkpoint time.
func (s *Site) StoreErr() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.storeErr
}

// noteStoreErr records the first persistence failure. Callers hold mu.
func (s *Site) noteStoreErr(err error) {
	if err != nil && s.storeErr == nil {
		s.storeErr = err
	}
}

// FragmentIDs returns the stored fragments' IDs in ascending order. With
// a bounded store attached this lists only the resident fragments; the
// store itself knows the full live set.
func (s *Site) FragmentIDs() []xmltree.FragmentID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]xmltree.FragmentID, 0, len(s.fragments))
	for id := range s.fragments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Put stores algorithm state under a key.
func (s *Site) Put(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state[key] = v
}

// Get retrieves algorithm state.
func (s *Site) Get(key string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.state[key]
	return v, ok
}

// GetOrPut returns the state stored under key, creating it with mk (under
// the site lock, so exactly once) when absent. Handlers use it for
// lazily created per-site singletons like the triplet cache.
func (s *Site) GetOrPut(key string, mk func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.state[key]; ok {
		return v
	}
	v := mk()
	s.state[key] = v
	return v
}

// Delete removes algorithm state.
func (s *Site) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.state, key)
}

// dispatch runs the registered handler for the request, behind the
// site's admission controller (when one is set): requests past the
// watermarks are shed with an OverloadError before any work happens, and
// a context that is already expired is declined for free — both the
// in-process transport and both TCP server paths funnel through here, so
// admission and accounting are uniform across transports. remote says
// whether the caller is another site: only remote calls count as visits,
// messages and bytes (the paper's rule — local work costs no
// communication); steps, cache, outcome and latency count every call.
func (s *Site) dispatch(ctx context.Context, req Request, remote bool) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	// observe gates the stats counters: the obs.stats scrape itself is
	// excluded so monitoring does not pollute the paper's per-site
	// visit/message/byte table.
	observe := req.Kind != StatsKind
	var start time.Time
	if observe {
		start = time.Now()
		if remote {
			s.stats.Visits.Add(1)
			s.stats.MessagesIn.Add(1)
			s.stats.BytesIn.Add(uint64(len(req.Payload)))
		}
	}
	// Span names are built only for traced calls: the untraced path
	// allocates nothing.
	_, traced := obs.FromContext(ctx)
	s.mu.RLock()
	h, ok := s.handlers[req.Kind]
	adm := s.admit
	if adm != nil && s.admitExempt[req.Kind] {
		adm = nil
	}
	s.mu.RUnlock()
	if !ok {
		return Response{}, fmt.Errorf("cluster: site %s has no handler for %q", s.id, req.Kind)
	}
	release, err := adm.admit(s.id, req)
	if err != nil {
		if observe {
			s.stats.Sheds.Add(1)
		}
		// The admission decision is itself a span-worthy event: a
		// traced request that was shed shows up in the tree as a
		// zero-work "admit" span instead of vanishing.
		if traced {
			_, asp := obs.StartSpan(ctx, string(s.id), "admit "+req.Kind)
			asp.SetAttr("shed", 1)
			asp.End()
		}
		return Response{}, err
	}
	defer release()
	hctx := ctx
	var hsp *obs.ActiveSpan
	if traced {
		hctx, hsp = obs.StartSpan(ctx, string(s.id), "handle "+req.Kind)
	}
	resp, err := h(hctx, s, req)
	if hsp != nil {
		hsp.SetAttr("steps", resp.Steps)
		hsp.End()
	}
	if observe {
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.stats.DeadlineExpired.Add(1)
			} else {
				s.stats.Errors.Add(1)
			}
		} else {
			if remote {
				s.stats.MessagesOut.Add(1)
				s.stats.BytesOut.Add(uint64(len(resp.Payload)))
			}
			s.stats.Steps.Add(uint64(resp.Steps))
			s.stats.CacheHits.Add(uint64(resp.CacheHits))
			s.stats.CacheMisses.Add(uint64(resp.CacheMisses))
			s.stats.Latency.Observe(time.Since(start).Nanoseconds())
		}
	}
	return resp, err
}

// Cluster is the in-process simulated LAN.
type Cluster struct {
	cost CostModel

	mu    sync.RWMutex
	sites map[frag.SiteID]*Site

	metrics *Metrics
}

// New creates an empty cluster with the given cost model.
func New(cost CostModel) *Cluster {
	c := &Cluster{cost: cost, sites: make(map[frag.SiteID]*Site)}
	c.metrics = &Metrics{blocks: func() map[frag.SiteID]*obs.SiteStats {
		c.mu.RLock()
		defer c.mu.RUnlock()
		out := make(map[frag.SiteID]*obs.SiteStats, len(c.sites))
		for id, s := range c.sites {
			out[id] = &s.stats
		}
		return out
	}}
	return c
}

// Cost returns the cluster's cost model.
func (c *Cluster) Cost() CostModel { return c.cost }

// Metrics returns the live view of the sites' own SiteStats blocks.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// AddSite creates (or returns the existing) site with the given name.
func (c *Cluster) AddSite(id frag.SiteID) *Site {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sites[id]; ok {
		return s
	}
	s := NewSite(id)
	c.sites[id] = s
	return s
}

// Site returns the site with the given name.
func (c *Cluster) Site(id frag.SiteID) (*Site, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.sites[id]
	return s, ok
}

// Sites returns all site names, sorted.
func (c *Cluster) Sites() []frag.SiteID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]frag.SiteID, 0, len(c.sites))
	for id := range c.sites {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ErrUnknownSite is returned for calls to sites that do not exist.
var ErrUnknownSite = errors.New("cluster: unknown site")

// Call sends a request from site `from` to site `to`, executing the
// handler synchronously in the caller's goroutine. Local calls (from == to)
// are free of network cost and are not counted as visits, matching the
// paper's accounting. The callee's SiteStats block is the only ledger the
// call touches: the success path takes no exclusive lock.
func (c *Cluster) Call(ctx context.Context, from, to frag.SiteID, req Request) (Response, CallCost, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, CallCost{}, err
	}
	c.mu.RLock()
	site, ok := c.sites[to]
	c.mu.RUnlock()
	if !ok {
		return Response{}, CallCost{}, fmt.Errorf("%w: %s", ErrUnknownSite, to)
	}
	remote := from != to
	cost := CallCost{ReqBytes: len(req.Payload)}
	if remote && c.cost.RealDelays {
		sleepCtx(ctx, c.cost.Latency+c.cost.TransferTime(cost.ReqBytes))
	}
	// A traced remote call gets a client-side "call" span; the callee's
	// handler spans parent under it. The in-process transport shares the
	// caller's collector directly (no wire, no piggyback).
	dctx := ctx
	var callSpan obs.Span
	tc, traced := obs.FromContext(ctx)
	traced = traced && remote
	if traced {
		callSpan = obs.Span{
			TraceID: tc.TraceID,
			ID:      obs.NewSpanID(),
			Parent:  tc.SpanID,
			Site:    string(to),
			Name:    "call " + req.Kind,
		}
		child := tc
		child.SpanID = callSpan.ID
		dctx = obs.WithTrace(ctx, child)
	}
	start := time.Now()
	resp, err := site.dispatch(dctx, req, remote)
	cost.Wall = time.Since(start)
	cost.Steps = resp.Steps
	cost.Compute = c.cost.ComputeTime(resp.Steps)
	if err == nil {
		cost.RespBytes = len(resp.Payload)
	}
	if traced {
		callSpan.Start = start.UnixNano()
		callSpan.Dur = cost.Wall.Nanoseconds()
		callSpan.Attrs = bytesAttrs(cost)
		tc.Collector.Add(callSpan)
	}
	if err != nil {
		return Response{}, cost, fmt.Errorf("cluster: %s→%s %s: %w", from, to, req.Kind, err)
	}
	if remote {
		cost.Net = c.cost.RoundTrip(cost.ReqBytes, cost.RespBytes)
		if c.cost.RealDelays {
			sleepCtx(ctx, c.cost.Latency+c.cost.TransferTime(cost.RespBytes))
		}
	}
	return resp, cost, nil
}

// bytesAttrs labels a client-side call span with the payload sizes the
// call moved, so a rendered trace shows each message's traffic.
func bytesAttrs(cost CallCost) []obs.Attr {
	return []obs.Attr{{Key: "req_bytes", Val: int64(cost.ReqBytes)}, {Key: "resp_bytes", Val: int64(cost.RespBytes)}}
}

// Go implements AsyncTransport for the in-process cluster: the handler
// runs in its own goroutine, exactly as the engine's fan-outs always
// ran it, so the deterministic CostModel accounting (and RealDelays
// sleeping) of Call is preserved call for call.
func (c *Cluster) Go(ctx context.Context, from, to frag.SiteID, req Request) <-chan Reply {
	return goViaCall(ctx, c, from, to, req)
}

// SubscribeDeltas implements DeltaSubscriber by registering fn directly
// on the target site.
func (c *Cluster) SubscribeDeltas(_ context.Context, _, to frag.SiteID, fn func([]byte)) (func(), error) {
	c.mu.RLock()
	site, ok := c.sites[to]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSite, to)
	}
	return site.SubscribeDeltas(fn), nil
}

func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
