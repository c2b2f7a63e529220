package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/obs"
)

// State is a site's health as the tier sees it.
type State int

const (
	// Up: the site serves normally and is a first-choice replica.
	Up State = iota
	// Suspect: at least one recent failure (or a recovery in progress).
	// Suspect replicas stay eligible — hysteresis, so a single timeout
	// does not flap a site out of rotation — but lose ties against Up
	// ones.
	Suspect
	// Down: enough consecutive failures that the router excludes the
	// site entirely until a probe succeeds.
	Down
)

func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// Options tunes the tier's health state machine and prober.
type Options struct {
	// DownAfter is the number of consecutive failures that takes a site
	// from Up all the way to Down (the first failure only suspects it).
	// Default 3.
	DownAfter int
	// UpAfter is the number of consecutive successes that promotes a
	// Suspect site back to Up. Default 2.
	UpAfter int
	// ProbeInterval is the background prober's cadence; 0 uses the
	// default (250ms), negative disables the background prober (health
	// then moves on passive signals and explicit Recheck calls only).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe call. Default 2s.
	ProbeTimeout time.Duration
	// EWMAAlpha is the weight of the newest RTT sample in the per-site
	// latency average the routing score uses. Default 0.3.
	EWMAAlpha float64
	// Hedging enables speculative duplicates: a pure scatter job on a
	// fragment set with a second live replica races a copy on the
	// next-best site once the primary has been quiet past the hedge
	// delay. First answer wins; the loser is cancelled. Default off.
	Hedging bool
	// HedgeDelay fixes the hedge timer's arm. 0 (the default) arms it
	// dynamically at the primary site's observed latency p95 — and until
	// the primary has been observed at least once, declines to hedge.
	HedgeDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	if o.UpAfter <= 0 {
		o.UpAfter = 2
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.EWMAAlpha <= 0 || o.EWMAAlpha > 1 {
		o.EWMAAlpha = 0.3
	}
	return o
}

// SiteStatus is one site's health snapshot (Tier.Health).
type SiteStatus struct {
	State State
	// EWMA is the smoothed observed round-trip/service time.
	EWMA time.Duration
	// P95 is the observed round-trip p95 (histogram quantile once
	// enough samples exist, mean+2σ before that; 0 = never observed).
	P95 time.Duration
	// Inflight is the number of engine calls currently outstanding.
	Inflight int64
	// Fails counts failures observed over the site's lifetime.
	Fails int64
	// Transitions counts health-state changes (flap indicator).
	Transitions int64
}

type siteHealth struct {
	state     State
	fails     int // consecutive
	oks       int // consecutive
	ewmaNanos float64
	// ewmaVarNanos2 is the exponentially-weighted variance of the RTT
	// samples (ns²), tracked alongside the mean as a cold-start p95
	// estimate (mean + 2σ) until the histogram has enough samples.
	ewmaVarNanos2 float64
	// hist is the full log-bucketed RTT distribution; once it holds
	// histP95MinSamples samples the hedge delay arms from its real p95
	// instead of the normal-tail approximation.
	hist        obs.HistSnapshot
	inflight    int64
	totalFails  int64
	transitions int64
	// shedding marks a site whose last answer was an admission shed: it
	// is alive, but refuses work until it next serves a call.
	shedding bool
}

// histP95MinSamples gates the switch from the mean+2σ estimate to the
// histogram p95: below it a couple of outliers would swing the
// quantile wildly.
const histP95MinSamples = 16

// healthTracker is the tier's health state machine; safe for concurrent
// use. Signals come from three places: the Started/Finished bracket
// around every engine call (passive), probes (active), and the metrics
// EWMA seed (see Tier.score).
type healthTracker struct {
	mu    sync.Mutex
	opt   Options
	sites map[frag.SiteID]*siteHealth
}

func newHealthTracker(opt Options, sites []frag.SiteID) *healthTracker {
	h := &healthTracker{opt: opt, sites: make(map[frag.SiteID]*siteHealth, len(sites))}
	for _, s := range sites {
		h.sites[s] = &siteHealth{}
	}
	return h
}

func (h *healthTracker) site(id frag.SiteID) *siteHealth {
	s, ok := h.sites[id]
	if !ok {
		s = &siteHealth{}
		h.sites[id] = s
	}
	return s
}

func (h *healthTracker) started(id frag.SiteID) {
	h.mu.Lock()
	h.site(id).inflight++
	h.mu.Unlock()
}

func (h *healthTracker) finished(id frag.SiteID, rtt time.Duration, err error) {
	h.mu.Lock()
	h.site(id).inflight--
	h.mu.Unlock()
	// A cancelled call is the round's choice (a sibling failed first, or
	// a hedge lost its race), not evidence about this site.
	if err != nil && errors.Is(err, context.Canceled) {
		return
	}
	h.result(id, rtt, err)
}

// result feeds one observation — success or failure — through the state
// machine. Used by both passive signals (finished) and probes.
func (h *healthTracker) result(id frag.SiteID, rtt time.Duration, err error) {
	// An admission shed — seen by a query or a probe — is neutral for
	// the state machine: the site answered, so it is alive, just
	// saturated. It only marks the site as shedding until its next
	// success, which routing ranks below every replica that serves (see
	// rank).
	if err != nil && errors.Is(err, cluster.ErrOverloaded) {
		h.mu.Lock()
		h.site(id).shedding = true
		h.mu.Unlock()
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.site(id)
	if err == nil {
		s.shedding = false
		s.fails = 0
		s.oks++
		if a := h.opt.EWMAAlpha; s.ewmaNanos == 0 {
			s.ewmaNanos = float64(rtt)
		} else {
			diff := float64(rtt) - s.ewmaNanos
			s.ewmaNanos += a * diff
			s.ewmaVarNanos2 = (1 - a) * (s.ewmaVarNanos2 + a*diff*diff)
		}
		s.hist.Observe(rtt.Nanoseconds())
		switch s.state {
		case Down:
			// One success is not full trust: Down goes through Suspect.
			s.state = Suspect
			s.transitions++
			s.oks = 1
		case Suspect:
			if s.oks >= h.opt.UpAfter {
				s.state = Up
				s.transitions++
			}
		}
		return
	}
	s.oks = 0
	s.fails++
	s.totalFails++
	switch s.state {
	case Up:
		s.state = Suspect
		s.transitions++
	case Suspect:
		if s.fails >= h.opt.DownAfter {
			s.state = Down
			s.transitions++
		}
	}
}

// The routing ranks: lower is preferred.
const (
	rankUp = iota
	rankSuspect
	rankShedding
)

// rank orders a site for routing: Up before Suspect before shedding — a
// site whose last answer was a shed refuses work, so a replica that
// serves comes first, whatever its state. ok is false for a Down site,
// which is not routable.
func (h *healthTracker) rank(id frag.SiteID) (rank int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.site(id)
	switch {
	case s.state == Down:
		return 0, false
	case s.shedding:
		return rankShedding, true
	case s.state == Suspect:
		return rankSuspect, true
	}
	return rankUp, true
}

func (h *healthTracker) state(id frag.SiteID) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.site(id).state
}

// load returns the routing-score inputs of a site: its smoothed latency
// (0 = never observed) and current in-flight count.
func (h *healthTracker) load(id frag.SiteID) (ewmaNanos float64, inflight int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.site(id)
	return s.ewmaNanos, s.inflight
}

// floorSample feeds a latency *floor* observation: the site was seen to
// take at least rtt (a hedge raced it and won, so its true latency is
// unknown but no smaller). It moves the EWMA/variance like a sample —
// but only upward, and without touching the consecutive-ok/fail state
// machine: losing a hedge race is slowness evidence, not failure
// evidence. Without this, a replica whose calls always lose hedges is
// always cancelled, never observed, and keeps scoring as average.
func (h *healthTracker) floorSample(id frag.SiteID, rtt time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.site(id)
	if float64(rtt) <= s.ewmaNanos {
		return
	}
	if s.ewmaNanos == 0 {
		s.ewmaNanos = float64(rtt)
		return
	}
	a := h.opt.EWMAAlpha
	diff := float64(rtt) - s.ewmaNanos
	s.ewmaNanos += a * diff
	s.ewmaVarNanos2 = (1 - a) * (s.ewmaVarNanos2 + a*diff*diff)
	// A floor is still a real "at least this slow" observation — it
	// belongs in the distribution the hedge p95 arms from.
	s.hist.Observe(rtt.Nanoseconds())
}

// p95 estimates the site's latency 95th percentile; 0 when the site
// was never observed. With enough samples the real histogram quantile
// is used; before that, the smoothed mean + 2σ (exact for a normal
// tail, a serviceable hedge-timer arm for any) covers the cold start.
func (h *healthTracker) p95(id frag.SiteID) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.site(id)
	if s.hist.Count >= histP95MinSamples {
		return time.Duration(s.hist.Quantile(0.95))
	}
	if s.ewmaNanos == 0 {
		return 0
	}
	return time.Duration(s.ewmaNanos + 2*math.Sqrt(s.ewmaVarNanos2))
}

func (h *healthTracker) snapshot() map[frag.SiteID]SiteStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[frag.SiteID]SiteStatus, len(h.sites))
	for id, s := range h.sites {
		p95 := time.Duration(0)
		if s.hist.Count >= histP95MinSamples {
			p95 = time.Duration(s.hist.Quantile(0.95))
		} else if s.ewmaNanos != 0 {
			p95 = time.Duration(s.ewmaNanos + 2*math.Sqrt(s.ewmaVarNanos2))
		}
		out[id] = SiteStatus{
			State:       s.state,
			EWMA:        time.Duration(s.ewmaNanos),
			P95:         p95,
			Inflight:    s.inflight,
			Fails:       s.totalFails,
			Transitions: s.transitions,
		}
	}
	return out
}
