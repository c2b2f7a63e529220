// Package obs is the observability layer: per-query distributed trace
// spans propagated over wire v2, log-bucketed latency histograms, and
// the live introspection plane (/metrics, /tracez, parbox top).
//
// The package imports the standard library and internal/wire (itself
// stdlib only) and deliberately no other internal package — sites are
// identified by plain strings so cluster, core, serve, and the cmd
// binaries can all depend on it without cycles.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of log2 buckets in a Histogram. Bucket i
// holds values in [2^i, 2^(i+1)), so 64 buckets cover every positive
// int64 — nanosecond latencies from 1ns to ~292 years with at most 2×
// relative error, no configuration, no allocation.
const HistBuckets = 64

// Histogram is a lock-free log2-bucketed histogram of non-negative
// int64 samples (typically nanoseconds or bytes). Observe is safe for
// concurrent use; quantiles are extracted from a Snapshot.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	sum    atomic.Int64
	count  atomic.Uint64
}

// bucketOf returns the bucket index for v: floor(log2(v)), with all
// values < 1 clamped into bucket 0.
func bucketOf(v int64) int {
	if v < 2 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// bucketHigh returns the exclusive upper bound of bucket i.
func bucketHigh(i int) int64 {
	if i >= 62 {
		return 1<<62 + (1<<62 - 1) // avoid overflow; top buckets saturate
	}
	return 1 << (i + 1)
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot returns a point-in-time copy suitable for quantile
// extraction and wire encoding. The copy is not atomic across buckets
// (samples may land between loads) — fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Quantile is shorthand for h.Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().Quantile(q) }

// HistSnapshot is a plain (non-atomic) histogram value. It doubles as
// a mutex-guarded accumulator for callers that already hold a lock
// (cluster.Metrics, serve's health tracker) — call Observe under that
// lock — and as the copyable snapshot form of Histogram.
type HistSnapshot struct {
	Counts [HistBuckets]uint64
	Sum    int64
	Count  uint64
}

// Observe records one sample into the snapshot. NOT safe for
// concurrent use — the caller must serialize (or use Histogram).
func (s *HistSnapshot) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	s.Counts[bucketOf(v)]++
	s.Sum += v
	s.Count++
}

// Merge adds other's samples into s.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Sum += other.Sum
	s.Count += other.Count
}

// Mean returns the mean sample, or 0 with no samples.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1),
// linearly interpolated inside the containing log bucket, so the
// estimate is within the bucket's 2× bounds of the true value. Returns
// 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) >= target {
			low := int64(0)
			if i > 0 {
				low = 1 << i
			}
			high := bucketHigh(i)
			frac := (target - float64(prev)) / float64(c)
			return low + int64(frac*float64(high-low))
		}
	}
	return bucketHigh(HistBuckets - 1)
}
