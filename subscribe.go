package parbox

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/boolexpr"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/views"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Notification is one pushed subscription event: after an update to Frag
// (now at Version), the subscription's answer is Answer; Flipped marks
// the notifications where the answer actually changed. Every maintenance
// delta affecting the subscribed query produces a notification — a
// dissemination system filters on Flipped, a freshness monitor reads
// them all.
type Notification struct {
	Frag    FragmentID
	Version uint64
	Answer  bool
	Flipped bool
}

// Subscription is a standing Boolean XPath subscription: the query is
// registered at every site as a standing program, the sites keep its
// per-fragment triplets incrementally maintained across updates (spine
// recomputation, not full bottomUp), and whenever a fragment's root
// formulas flip, the site pushes a delta — over the wire on TCP
// deployments — from which the coordinator re-solves the equation system
// and notifies the subscriber. No polling anywhere: an update that
// cannot change the answer of a standing query costs that query nothing.
type Subscription struct {
	mgr   *subManager
	state *subState
	id    uint64
	ch    chan Notification
	done  chan struct{}

	once sync.Once
	err  error // why the subscription ended; written before done closes
}

// C returns the subscription's notification channel. Deliveries block —
// the delta dispatcher waits for a slow subscriber rather than dropping
// notifications — so drain it promptly. Like time.Ticker's, the channel
// is never closed (closing would race in-flight deliveries): receive
// alongside Done, which closes when the subscription ends.
func (s *Subscription) C() <-chan Notification { return s.ch }

// Done closes when the subscription ends — Cancel, System.Close, or a
// pushed delta the coordinator cannot solve (see Err); after that no
// further notifications are delivered.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Err returns why the subscription ended: nil while it is live and after
// Cancel or System.Close, otherwise the failure that ended it — a
// re-solve that fails, for instance with eval.ErrUnresolved once the
// fragmentation changed under the subscription. The answer is then no
// longer maintained; re-subscribe.
func (s *Subscription) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// end closes the subscription with cause (nil for a plain cancel).
func (s *Subscription) end(cause error) {
	s.once.Do(func() {
		s.err = cause
		close(s.done)
	})
}

// Answer returns the subscription's current answer.
func (s *Subscription) Answer() bool {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	return s.state.ans
}

// Cancel detaches the subscription: Done closes and no further
// notifications are delivered (C stays open; see C). The last
// cancellation of a query drops the coordinator's solver state for it;
// the sites keep maintaining the standing program (registration is
// per-site state with no unregister), so a re-subscribe is cheap.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.mgr.mu.Lock()
		st := s.state
		st.mu.Lock()
		delete(st.subs, s.id)
		empty := len(st.subs) == 0
		st.mu.Unlock()
		if empty {
			delete(s.mgr.states, st.fp)
		}
		s.mgr.mu.Unlock()
		close(s.done)
	})
}

// subState is the coordinator's solver state for one subscribed program,
// shared by every subscription of that query (deduplicated by program
// fingerprint): the per-fragment triplets in their own arena, the current
// answer, and the per-fragment version high-water marks that deduplicate
// re-pushed deltas.
type subState struct {
	fp   uint64
	prog *xpath.Program

	mu       sync.Mutex
	st       *frag.SourceTree
	arena    *boolexpr.Arena
	triplets map[xmltree.FragmentID]eval.Triplet
	versions map[xmltree.FragmentID]uint64
	ans      bool

	subs map[uint64]*Subscription
}

// subManager is the coordinator side of standing subscriptions: one per
// System, created by the first Subscribe. It holds one delta subscription
// per site (shared by every query) and one subState per subscribed
// program fingerprint; a single dispatcher goroutine serializes delta
// processing, so per-update coordinator work is one solve per program
// whose root actually flipped — independent of how many subscriptions
// share the query, and zero for untouched queries.
type subManager struct {
	sys *System

	// deltas carries raw pushed payloads from the per-site observers to
	// the dispatcher. Sends block when the dispatcher falls behind —
	// backpressure into the update path instead of dropped deltas.
	deltas  chan []byte
	done    chan struct{}
	stopped chan struct{} // closed when the dispatcher exits

	mu      sync.Mutex
	states  map[uint64]*subState
	cancels []func()
	nextID  uint64
	closed  bool

	// faults counts the pushed deltas the dispatcher could not apply, by
	// reason (the parbox_subscription_faults_total family).
	faults [numSubFaults]atomic.Int64
}

// The reasons a pushed delta fails to apply.
const (
	faultDelta   = iota // the delta frame does not decode: it names no subscriber
	faultTriplet        // its triplet does not decode: a valid re-push may still apply
	faultSolve          // the re-solve fails: the program's subscriptions end
	numSubFaults
)

var subFaultReasons = [numSubFaults]string{"undecodable_delta", "undecodable_triplet", "solve_failed"}

// deltaSubscriber returns what subscriptions take their deltas from: the
// engine's transport when it supports push delivery, the in-process
// cluster otherwise (a wrapper without push support still carries the
// registration calls).
func (s *System) deltaSubscriber() cluster.DeltaSubscriber {
	if ds, ok := s.trans.(cluster.DeltaSubscriber); ok {
		return ds
	}
	return s.cluster
}

// subMgr returns the System's subscription manager, starting it (site
// delta subscriptions plus the dispatcher) on first use.
func (s *System) subMgr(ctx context.Context) (*subManager, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs != nil {
		return s.subs, nil
	}
	ds := s.deltaSubscriber()
	m := &subManager{
		sys:     s,
		deltas:  make(chan []byte, 256),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		states:  make(map[uint64]*subState),
	}
	coord := s.engine.Coordinator()
	for _, siteID := range s.engine.SourceTree().Sites() {
		cancel, err := ds.SubscribeDeltas(ctx, coord, siteID, m.onDelta)
		if err != nil {
			for _, c := range m.cancels {
				c()
			}
			return nil, fmt.Errorf("parbox: subscribing to %s: %w", siteID, err)
		}
		m.cancels = append(m.cancels, cancel)
	}
	go m.dispatch()
	s.subs = m
	return m, nil
}

// onDelta runs on the pushing site's goroutine (in-process) or the
// connection's reader goroutine (TCP): it only enqueues.
func (m *subManager) onDelta(payload []byte) {
	body := append([]byte(nil), payload...)
	select {
	case m.deltas <- body:
	case <-m.done:
	}
}

// dispatch serializes delta processing until close.
func (m *subManager) dispatch() {
	defer close(m.stopped)
	for {
		select {
		case body := <-m.deltas:
			m.process(body)
		case <-m.done:
			return
		}
	}
}

// process applies one pushed delta: route by program fingerprint, drop
// stale versions, re-solve, notify.
func (m *subManager) process(body []byte) {
	d, err := views.DecodeDelta(body)
	if err != nil {
		m.faults[faultDelta].Add(1) // a malformed push can't name a subscriber to fail
		return
	}
	m.mu.Lock()
	st := m.states[d.FP]
	m.mu.Unlock()
	if st == nil {
		return // no live subscription for this program (e.g. all cancelled)
	}
	st.mu.Lock()
	if v, ok := st.versions[d.Frag]; ok && d.Version <= v {
		st.mu.Unlock()
		return // replica re-push or reordered duplicate: already applied
	}
	// Bound the long-lived arena before decoding into it (compaction
	// invalidates the old arena's ids).
	st.arena = eval.CompactTriplets(st.arena, st.triplets)
	t, err := eval.DecodeTripletInto(st.arena, d.Triplet)
	if err != nil {
		// Leave the version unmarked and the subscriptions open: a
		// replica's valid re-push of this version still applies.
		st.mu.Unlock()
		m.faults[faultTriplet].Add(1)
		return
	}
	st.versions[d.Frag] = d.Version
	flipped := false
	if old, ok := st.triplets[d.Frag]; !ok || !old.Equal(t) {
		st.triplets[d.Frag] = t
		ans, _, err := eval.Solve(st.st, st.triplets, st.prog)
		if err != nil {
			st.mu.Unlock()
			m.faults[faultSolve].Add(1)
			m.fail(st, fmt.Errorf("parbox: subscription ended: re-solve after fragment %d version %d: %w", d.Frag, d.Version, err))
			return
		}
		flipped = ans != st.ans
		st.ans = ans
	}
	n := Notification{Frag: d.Frag, Version: d.Version, Answer: st.ans, Flipped: flipped}
	subs := make([]*Subscription, 0, len(st.subs))
	for _, sub := range st.subs {
		subs = append(subs, sub)
	}
	st.mu.Unlock()
	for _, sub := range subs {
		select {
		case sub.ch <- n:
		case <-sub.done:
		case <-m.done:
			return
		}
	}
}

// fail ends every subscription of st's program with cause and drops the
// program's solver state, so later deltas for it find no subscriber. The
// caller holds neither m.mu nor st.mu.
func (m *subManager) fail(st *subState, cause error) {
	m.mu.Lock()
	if m.states[st.fp] == st {
		delete(m.states, st.fp)
	}
	m.mu.Unlock()
	st.mu.Lock()
	subs := st.subs
	st.subs = make(map[uint64]*Subscription)
	st.mu.Unlock()
	for _, sub := range subs {
		sub.end(cause)
	}
}

// close stops the dispatcher, cancels the site delta subscriptions and
// ends every subscription (Done closes).
func (m *subManager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	cancels := m.cancels
	m.cancels = nil
	var subs []*Subscription
	for _, st := range m.states {
		st.mu.Lock()
		for _, sub := range st.subs {
			subs = append(subs, sub)
		}
		st.mu.Unlock()
	}
	m.states = make(map[uint64]*subState)
	m.mu.Unlock()
	close(m.done)
	<-m.stopped // no delivery can be in flight past this point
	for _, c := range cancels {
		c()
	}
	for _, sub := range subs {
		sub.end(nil)
	}
}

// Subscribe registers q as a standing subscription: the query is
// registered at every site holding a fragment (the sites thereafter keep
// its triplets incrementally maintained and push deltas when an update
// flips a fragment's root formulas), the baseline answer is solved from
// the registration's triplets, and subsequent flips arrive on the
// returned Subscription's channel without any polling. Subscriptions of
// the same query (by compiled-program fingerprint) share one solver
// state, so ten thousand subscribers to one query cost one solve per
// relevant update.
//
// Subscriptions track content updates (View.Update); a fragmentation
// change (Split/Merge) is not yet reflected in the subscription's source
// tree — cancel and re-subscribe around such operations.
func (s *System) Subscribe(ctx context.Context, q *Prepared) (*Subscription, error) {
	m, err := s.subMgr(ctx)
	if err != nil {
		return nil, err
	}
	prog := q.program()
	fp := prog.Fingerprint()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("parbox: system closed")
	}
	st, ok := m.states[fp]
	if !ok {
		st = &subState{
			fp:       fp,
			prog:     prog,
			arena:    boolexpr.NewArena(),
			triplets: make(map[xmltree.FragmentID]eval.Triplet),
			versions: make(map[xmltree.FragmentID]uint64),
			subs:     make(map[uint64]*Subscription),
		}
		m.states[fp] = st
	}
	m.nextID++
	id := m.nextID
	m.mu.Unlock()

	if !ok {
		if err := m.baseline(ctx, st); err != nil {
			m.mu.Lock()
			if len(st.subs) == 0 {
				delete(m.states, fp)
			}
			m.mu.Unlock()
			return nil, err
		}
	}
	sub := &Subscription{
		mgr: m, state: st, id: id,
		ch:   make(chan Notification, 16),
		done: make(chan struct{}),
	}
	st.mu.Lock()
	st.subs[id] = sub
	st.mu.Unlock()
	return sub, nil
}

// baseline registers st's program at every site and solves the initial
// answer from the returned per-fragment triplets — one visit per site,
// no data shipped, exactly the ParBoX round shape.
func (m *subManager) baseline(ctx context.Context, st *subState) error {
	tr := m.sys.trans
	eng := m.sys.eng()
	coord := eng.Coordinator()
	source := eng.SourceTree().Clone()
	bySite := make(map[SiteID][]FragmentID)
	for _, id := range source.Fragments() {
		e, ok := source.Entry(id)
		if !ok {
			return fmt.Errorf("parbox: fragment %d missing from source tree", id)
		}
		bySite[e.Site] = append(bySite[e.Site], id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.st = source
	for siteID, ids := range bySite {
		items, err := views.RegisterProg(ctx, tr, coord, siteID, st.prog, ids)
		if err != nil {
			return fmt.Errorf("parbox: registering subscription at %s: %w", siteID, err)
		}
		for _, it := range items {
			t, err := eval.DecodeTripletInto(st.arena, it.Triplet)
			if err != nil {
				return err
			}
			st.triplets[it.Frag] = t
			if v, ok := st.versions[it.Frag]; !ok || it.Version > v {
				st.versions[it.Frag] = it.Version
			}
		}
	}
	ans, _, err := eval.Solve(st.st, st.triplets, st.prog)
	if err != nil {
		return err
	}
	st.ans = ans
	return nil
}
