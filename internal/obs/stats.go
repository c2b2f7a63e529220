package obs

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/wire"
)

// SiteStats is the always-on per-site counter block: the paper's four
// evaluation quantities (visits, messages, bytes, computation steps)
// plus cache, shedding, and deadline counters, and a latency
// histogram of served requests. Every field is atomic so the hot path
// (Site.dispatch) updates it without locks; daemons expose it over
// /metrics and the obs.stats RPC that powers `parbox top`.
type SiteStats struct {
	Visits          atomic.Uint64
	MessagesIn      atomic.Uint64
	MessagesOut     atomic.Uint64
	BytesIn         atomic.Uint64
	BytesOut        atomic.Uint64
	Steps           atomic.Uint64
	CacheHits       atomic.Uint64
	CacheMisses     atomic.Uint64
	Sheds           atomic.Uint64
	DeadlineExpired atomic.Uint64
	Errors          atomic.Uint64
	// Update-path maintenance health (views.applyUpdate / standing
	// subscriptions): how triplets were brought current after edits, and
	// how many root-flip deltas went out to subscribers.
	SpineRecomputes atomic.Uint64
	FullRecomputes  atomic.Uint64
	NoopUpdates     atomic.Uint64
	DeltasPushed    atomic.Uint64
	Latency         Histogram
}

// SiteStatsSnapshot is the plain, wire-encodable copy of SiteStats.
type SiteStatsSnapshot struct {
	Site            string
	Visits          uint64
	MessagesIn      uint64
	MessagesOut     uint64
	BytesIn         uint64
	BytesOut        uint64
	Steps           uint64
	CacheHits       uint64
	CacheMisses     uint64
	Sheds           uint64
	DeadlineExpired uint64
	Errors          uint64
	SpineRecomputes uint64
	FullRecomputes  uint64
	NoopUpdates     uint64
	DeltasPushed    uint64
	Latency         HistSnapshot
}

// Snapshot copies the counters. Not atomic across fields; fine for
// monitoring.
func (s *SiteStats) Snapshot() SiteStatsSnapshot {
	return SiteStatsSnapshot{
		Visits:          s.Visits.Load(),
		MessagesIn:      s.MessagesIn.Load(),
		MessagesOut:     s.MessagesOut.Load(),
		BytesIn:         s.BytesIn.Load(),
		BytesOut:        s.BytesOut.Load(),
		Steps:           s.Steps.Load(),
		CacheHits:       s.CacheHits.Load(),
		CacheMisses:     s.CacheMisses.Load(),
		Sheds:           s.Sheds.Load(),
		DeadlineExpired: s.DeadlineExpired.Load(),
		Errors:          s.Errors.Load(),
		SpineRecomputes: s.SpineRecomputes.Load(),
		FullRecomputes:  s.FullRecomputes.Load(),
		NoopUpdates:     s.NoopUpdates.Load(),
		DeltasPushed:    s.DeltasPushed.Load(),
		Latency:         s.Latency.Snapshot(),
	}
}

// Encode appends a uvarint framing of the snapshot to dst. Histogram
// buckets are encoded sparsely (index,count pairs) since most of the
// 64 log buckets are empty.
func (s SiteStatsSnapshot) Encode(dst []byte) []byte {
	dst = wire.AppendString(dst, s.Site)
	for _, v := range [...]uint64{
		s.Visits, s.MessagesIn, s.MessagesOut, s.BytesIn, s.BytesOut,
		s.Steps, s.CacheHits, s.CacheMisses, s.Sheds, s.DeadlineExpired,
		s.Errors, s.SpineRecomputes, s.FullRecomputes, s.NoopUpdates,
		s.DeltasPushed,
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(s.Latency.Sum))
	dst = binary.AppendUvarint(dst, s.Latency.Count)
	nonzero := 0
	for _, c := range s.Latency.Counts {
		if c != 0 {
			nonzero++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nonzero))
	for i, c := range s.Latency.Counts {
		if c != 0 {
			dst = binary.AppendUvarint(dst, uint64(i))
			dst = binary.AppendUvarint(dst, c)
		}
	}
	return dst
}

// DecodeSiteStats decodes an Encode buffer.
func DecodeSiteStats(buf []byte) (SiteStatsSnapshot, error) {
	r := wire.NewReader(buf, errSpanDecode)
	var s SiteStatsSnapshot
	s.Site = spanString(&r)
	for _, p := range [...]*uint64{
		&s.Visits, &s.MessagesIn, &s.MessagesOut, &s.BytesIn, &s.BytesOut,
		&s.Steps, &s.CacheHits, &s.CacheMisses, &s.Sheds, &s.DeadlineExpired,
		&s.Errors, &s.SpineRecomputes, &s.FullRecomputes, &s.NoopUpdates,
		&s.DeltasPushed,
	} {
		*p = r.Uvarint()
	}
	s.Latency.Sum = int64(r.Uvarint())
	s.Latency.Count = r.Uvarint()
	nonzero := r.Count(2)
	if nonzero > HistBuckets {
		r.Fail("%d histogram buckets", nonzero)
	}
	for i := 0; i < nonzero; i++ {
		idx, c := r.Uvarint(), r.Uvarint()
		if idx >= HistBuckets {
			r.Fail("histogram bucket %d", idx)
			break
		}
		s.Latency.Counts[idx] = c
	}
	return s, r.Done()
}
