package cluster

// Overload protection: typed shed/expiry errors, the retry-after hint
// codec they travel the wire with, and the per-site admission controller.
//
// The contract with the retry layers above: an OverloadError is
// retryable — the site is alive, just saturated, and carries a hint for
// when to come back; a DeadlineError is final — it reports the caller's
// own budget expiring at the site, and errors.Is(err,
// context.DeadlineExceeded) holds so every existing "deadline is final"
// policy applies unchanged.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/frag"
	"repro/internal/wire"
)

// ErrOverloaded matches (errors.Is) every shed response: the site (or
// its connection) was past its admission high-water mark and declined
// the request instead of queueing it unboundedly. Retry after the
// OverloadError's hint.
var ErrOverloaded = errors.New("cluster: site overloaded")

// OverloadError is a typed shed: the site declined the request at
// admission. RetryAfter is the server's hint for when it expects
// capacity; retry layers must wait at least that long.
type OverloadError struct {
	Site       frag.SiteID
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("cluster: site %s overloaded (retry after %v)", e.Site, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) hold for every shed.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// RetryAfterHint extracts a shed's retry-after hint (0 when err carries
// none) — the backoff layers raise their jittered delay to at least it.
func RetryAfterHint(err error) time.Duration {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// DeadlineError reports that the request's wire-propagated deadline
// expired at the serving site: the server aborted (or never started) the
// evaluation instead of silently finishing dead work. It unwraps to
// context.DeadlineExceeded, so callers' deadline handling applies.
type DeadlineError struct {
	Site frag.SiteID
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("cluster: deadline expired at site %s", e.Site)
}

// Unwrap ties the remote expiry to context.DeadlineExceeded.
func (e *DeadlineError) Unwrap() error { return context.DeadlineExceeded }

// --- retry-after wire codec ------------------------------------------------

// maxRetryAfter bounds accepted retry-after hints (10s): a corrupt or
// hostile hint must not park a client forever.
const maxRetryAfter = 10 * time.Second

// appendRetryAfter encodes a shed response body: the retry-after hint in
// microseconds. Values are clamped to [0, maxRetryAfter] so that decode
// ∘ encode is the identity on every body this build emits.
func appendRetryAfter(dst []byte, d time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return binary.AppendUvarint(dst, uint64(d/time.Microsecond))
}

// decodeRetryAfter decodes a shed response body, clamping absurd values
// to maxRetryAfter. A torn body decodes to a zero hint rather than an
// error: the shed itself is already the signal, the hint is advisory.
func decodeRetryAfter(body []byte) time.Duration {
	r := wire.NewReader(body, ErrOverloaded)
	d := time.Duration(r.Uvarint()) * time.Microsecond // 0 on a torn body
	if d < 0 || d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// --- per-site admission control --------------------------------------------

// AdmissionLimits bounds how much work a site accepts concurrently; work
// past a watermark is shed with an OverloadError instead of queued.
type AdmissionLimits struct {
	// MaxInflight bounds concurrently dispatched requests (queue depth);
	// 0 = unbounded.
	MaxInflight int
	// MaxCost bounds the summed estimated cost of in-flight requests, in
	// the units of the estimator (node×subquery steps for the ParBoX
	// handlers); 0 = unbounded. Requests with no estimate weigh 1.
	MaxCost int64
	// RetryAfterBase scales the shed hint: the hint is the base times the
	// number of in-flight requests (deeper queue → later retry). Zero
	// means DefaultRetryAfterBase.
	RetryAfterBase time.Duration
}

// DefaultRetryAfterBase is the per-queued-request retry-after scale.
const DefaultRetryAfterBase = 500 * time.Microsecond

// admission is a site's admission controller. A nil *admission admits
// everything (the default — admission is opt-in per deployment).
type admission struct {
	mu       sync.Mutex
	lim      AdmissionLimits
	estimate func(req Request) int64
	inflight int
	cost     int64
	sheds    int64
}

// admit accepts the request (returning a release func) or sheds it with
// an OverloadError carrying the retry-after hint.
func (a *admission) admit(site frag.SiteID, req Request) (func(), error) {
	if a == nil {
		return func() {}, nil
	}
	var c int64 = 1
	if a.estimate != nil {
		if est := a.estimate(req); est > 1 {
			c = est
		}
	}
	a.mu.Lock()
	over := (a.lim.MaxInflight > 0 && a.inflight >= a.lim.MaxInflight) ||
		// Cost watermark: always admit into an empty site (a single huge
		// request must not deadlock against its own weight).
		(a.lim.MaxCost > 0 && a.inflight > 0 && a.cost+c > a.lim.MaxCost)
	if over {
		base := a.lim.RetryAfterBase
		if base <= 0 {
			base = DefaultRetryAfterBase
		}
		hint := time.Duration(a.inflight) * base
		if hint > maxRetryAfter {
			hint = maxRetryAfter
		}
		a.sheds++
		a.mu.Unlock()
		return nil, &OverloadError{Site: site, RetryAfter: hint}
	}
	a.inflight++
	a.cost += c
	a.mu.Unlock()
	return func() {
		a.mu.Lock()
		a.inflight--
		a.cost -= c
		a.mu.Unlock()
	}, nil
}

// Sheds reports how many requests this controller declined.
func (a *admission) Sheds() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sheds
}

// SetAdmission installs (or, with zero limits, removes) the site's
// admission controller. Call during setup, before the site serves.
func (s *Site) SetAdmission(lim AdmissionLimits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lim.MaxInflight <= 0 && lim.MaxCost <= 0 {
		s.admit = nil
		return
	}
	est := s.admitEstimate
	s.admit = &admission{lim: lim, estimate: est}
}

// SetAdmissionEstimator installs the per-request cost estimator the
// admission controller weighs requests with (core registers one that
// prices evaluation requests by the fragment sizes they touch). Safe to
// call before or after SetAdmission.
func (s *Site) SetAdmissionEstimator(est func(req Request) int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admitEstimate = est
	if s.admit != nil {
		s.admit.mu.Lock()
		s.admit.estimate = est
		s.admit.mu.Unlock()
	}
}

// AdmissionSheds reports how many requests the site's admission
// controller has declined (0 without one).
func (s *Site) AdmissionSheds() int64 {
	s.mu.RLock()
	a := s.admit
	s.mu.RUnlock()
	return a.Sheds()
}

// admissionEnabled reports whether the site runs admission control; the
// TCP server's per-connection shedding keys off it (no admission → plain
// backpressure, today's behavior).
func (s *Site) admissionEnabled() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admit != nil
}

// admissionExempt reports whether a request kind bypasses admission.
func (s *Site) admissionExempt(kind string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admitExempt[kind]
}

// ExemptFromAdmission marks request kinds the admission controller must
// always accept: control-plane traffic (health probes, fragment
// migration) whose whole point is reaching a site that is busy — shedding
// a probe would make an overloaded site look dead.
func (s *Site) ExemptFromAdmission(kinds ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.admitExempt == nil {
		s.admitExempt = make(map[string]bool, len(kinds))
	}
	for _, k := range kinds {
		s.admitExempt[k] = true
	}
}
