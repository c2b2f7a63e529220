package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/frag"
	"repro/internal/obs"
)

// Metrics is a live, read-only view of per-site obs.SiteStats blocks,
// the only per-site ledger. On a Cluster it reads the sites' own blocks;
// on a TCPTransport, where a callee's block lives in another process, it
// reads the client-side block each peer connection keeps, plus the
// blocks of locally registered sites. Every read sees the counters as
// they are now, so a method value bound once stays live. Reset
// re-baselines the view and never zeroes a counter, so the Prometheus
// counters exported from the same blocks stay monotonic. Safe for
// concurrent use.
type Metrics struct {
	// blocks returns the covered blocks, one per site.
	blocks func() map[frag.SiteID]*obs.SiteStats

	mu   sync.Mutex
	base map[frag.SiteID]obs.SiteStatsSnapshot
}

// counters lists a snapshot's counter fields, in obs's wire order.
func counters(s *obs.SiteStatsSnapshot) [16]*uint64 {
	return [...]*uint64{
		&s.Visits, &s.MessagesIn, &s.MessagesOut, &s.BytesIn, &s.BytesOut,
		&s.Steps, &s.CacheHits, &s.CacheMisses, &s.Sheds, &s.DeadlineExpired,
		&s.Errors, &s.SpineRecomputes, &s.FullRecomputes, &s.NoopUpdates,
		&s.DeltasPushed, &s.Latency.Count,
	}
}

// since returns s minus base, counter by counter: the activity between
// two snapshots of one block.
func since(s, base obs.SiteStatsSnapshot) obs.SiteStatsSnapshot {
	b := counters(&base)
	for i, p := range counters(&s) {
		*p -= *b[i]
	}
	for i := range s.Latency.Counts {
		s.Latency.Counts[i] -= base.Latency.Counts[i]
	}
	s.Latency.Sum -= base.Latency.Sum
	return s
}

// raw snapshots the covered blocks, ignoring the baseline.
func (m *Metrics) raw() map[frag.SiteID]obs.SiteStatsSnapshot {
	blocks := m.blocks()
	out := make(map[frag.SiteID]obs.SiteStatsSnapshot, len(blocks))
	for id, st := range blocks {
		s := st.Snapshot()
		s.Site = string(id)
		out[id] = s
	}
	return out
}

// Snapshot returns every covered site's activity since the last Reset.
func (m *Metrics) Snapshot() map[frag.SiteID]obs.SiteStatsSnapshot {
	out := m.raw()
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, s := range out {
		out[id] = since(s, m.base[id])
	}
	return out
}

// Site returns one site's activity since the last Reset.
func (m *Metrics) Site(id frag.SiteID) obs.SiteStatsSnapshot { return m.Snapshot()[id] }

// Reset makes the current counts the view's new zero.
func (m *Metrics) Reset() {
	base := m.raw()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.base = base
}

// total sums one quantity over all sites.
func (m *Metrics) total(f func(obs.SiteStatsSnapshot) uint64) int64 {
	var n uint64
	for _, s := range m.Snapshot() {
		n += f(s)
	}
	return int64(n)
}

// TotalMessages returns the number of remote messages exchanged (requests
// and responses each count once).
func (m *Metrics) TotalMessages() int64 {
	return m.total(func(s obs.SiteStatsSnapshot) uint64 { return s.MessagesIn + s.MessagesOut })
}

// TotalBytes returns the total remote payload bytes — the paper's network
// traffic measure.
func (m *Metrics) TotalBytes() int64 {
	return m.total(func(s obs.SiteStatsSnapshot) uint64 { return s.BytesIn + s.BytesOut })
}

// TotalSteps sums computation over all sites — the paper's total
// computation measure (local calls included: local work is still work).
func (m *Metrics) TotalSteps() int64 {
	return m.total(func(s obs.SiteStatsSnapshot) uint64 { return s.Steps })
}

// TotalSheds sums admission sheds over all sites.
func (m *Metrics) TotalSheds() int64 {
	return m.total(func(s obs.SiteStatsSnapshot) uint64 { return s.Sheds })
}

// TotalDeadlineExpired sums deadline expiries over all sites.
func (m *Metrics) TotalDeadlineExpired() int64 {
	return m.total(func(s obs.SiteStatsSnapshot) uint64 { return s.DeadlineExpired })
}

// TotalTripletCacheHits sums triplet-cache hits over all sites.
func (m *Metrics) TotalTripletCacheHits() int64 {
	return m.total(func(s obs.SiteStatsSnapshot) uint64 { return s.CacheHits })
}

// TotalTripletCacheMisses sums triplet-cache misses over all sites.
func (m *Metrics) TotalTripletCacheMisses() int64 {
	return m.total(func(s obs.SiteStatsSnapshot) uint64 { return s.CacheMisses })
}

// String renders a per-site table, for the experiment harness.
func (m *Metrics) String() string {
	snap := m.Snapshot()
	ids := make([]frag.SiteID, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %10s %12s %12s %12s\n", "site", "visits", "msgsIn", "bytesIn", "bytesOut", "steps")
	for _, id := range ids {
		s := snap[id]
		fmt.Fprintf(&b, "%-8s %8d %10d %12d %12d %12d\n",
			id, s.Visits, s.MessagesIn, s.BytesIn, s.BytesOut, s.Steps)
	}
	fmt.Fprintf(&b, "total messages %d, total bytes %d, total steps %d, triplet cache %d hit / %d miss\n",
		m.TotalMessages(), m.TotalBytes(), m.TotalSteps(),
		m.TotalTripletCacheHits(), m.TotalTripletCacheMisses())
	return b.String()
}
