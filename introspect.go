package parbox

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// WithIntrospection serves the system's live introspection plane over
// HTTP on addr (e.g. ":9090"; ":0" picks a free port — read it back
// with IntrospectionAddr). Endpoints, all stdlib-only:
//
//   - /metrics — Prometheus text exposition: per-site visits, messages,
//     bytes, steps, cache hits/misses, sheds, deadline expiries, errors
//     and the full request-latency histogram, plus the coalescing
//     scheduler's counters and the coordinator's per-call service-time
//     histograms.
//   - /healthz — liveness, with the serving tier's per-site states as
//     the detail body on WithFailover deployments.
//   - /tracez — the retained slow-query trace ring, rendered as span
//     trees (?min=50ms filters); Exec calls made with WithSpans or
//     WithTrace land here.
//   - /debug/pprof/* — the standard Go profiles.
//
// The server starts at deployment and stops on Close.
func WithIntrospection(addr string) Option {
	return func(o *options) { o.introspect = addr }
}

// IntrospectionAddr returns the introspection server's bound address
// ("" without WithIntrospection) — useful when deployed on ":0".
func (s *System) IntrospectionAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// startIntrospection binds the introspection HTTP server and arms the
// coordinator's trace ring (Exec feeds it only when the ring exists, so
// systems without introspection retain no spans).
func (s *System) startIntrospection(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("parbox: WithIntrospection listen %s: %w", addr, err)
	}
	s.obsRing = obs.NewTraceRing(0)
	mux := obs.NewMux(obs.MuxConfig{
		Metrics: s.fillMetrics,
		Healthz: s.healthz,
		Tracez:  s.obsRing.Records,
	})
	s.httpLn = ln
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return nil
}

// fillMetrics renders the whole system's exposition: the per-site
// always-on SiteStats blocks and the scheduler counters.
func (s *System) fillMetrics(p *obs.Prom) {
	ids := s.cluster.Sites()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	snaps := make([]obs.SiteStatsSnapshot, 0, len(ids))
	for _, id := range ids {
		site, ok := s.cluster.Site(id)
		if !ok {
			continue
		}
		snap := site.Stats().Snapshot()
		snap.Site = string(id)
		snaps = append(snaps, snap)
	}
	p.SiteStatsProm(snaps...)

	s.mu.RLock()
	subs := s.subs
	s.mu.RUnlock()
	for reason, name := range subFaultReasons {
		var n int64
		if subs != nil {
			n = subs.faults[reason].Load()
		}
		p.Counter("parbox_subscription_faults_total", "Pushed deltas the subscription dispatcher could not apply, by reason.", float64(n), "reason", name)
	}

	st := s.sched.stats()
	p.Counter("parbox_sched_rounds_total", "ParBoX rounds run by the coalescing scheduler.", float64(st.Rounds))
	p.Counter("parbox_sched_queries_total", "Exec calls served through the scheduler.", float64(st.Queries))
	p.Counter("parbox_sched_coalesced_queries_total", "Served calls that shared their round.", float64(st.CoalescedQueries))
	for _, f := range []struct {
		reason string
		n      int64
	}{
		{"idle", st.FlushIdle}, {"timer", st.FlushTimer},
		{"lanes", st.FlushLanes}, {"drain", st.FlushDrain},
	} {
		p.Counter("parbox_sched_flush_total", "Rounds by what flushed their window.", float64(f.n), "reason", f.reason)
	}
}

// healthz reports the coordinator as live; on WithFailover deployments
// the detail body lists every site's health state and the check fails
// only when no site is routable at all.
func (s *System) healthz() (bool, string) {
	if s.tier == nil {
		return true, "ok\n"
	}
	health := s.tier.Health()
	ids := make([]SiteID, 0, len(health))
	for id := range health {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	anyUp := false
	var b strings.Builder
	for _, id := range ids {
		h := health[id]
		if h.State != SiteDown {
			anyUp = true
		}
		fmt.Fprintf(&b, "%s %s ewma=%v p95=%v inflight=%d fails=%d\n",
			id, h.State, h.EWMA, h.P95, h.Inflight, h.Fails)
	}
	return anyUp, b.String()
}
