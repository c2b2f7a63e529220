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
	"sync/atomic"
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

// retryAfterPerInflight scales the shed hint: a shed asks the caller to
// come back after this long per request the site is already running.
const retryAfterPerInflight = 500 * time.Microsecond

// admission bounds how many requests a site runs at once; a request past
// the limit is shed with an OverloadError instead of queued. A site
// without one admits everything (the default — admission is opt-in per
// deployment).
type admission struct {
	limit    int64
	inflight atomic.Int64
}

// admit takes a slot (give it back with release) or sheds the request
// with an OverloadError whose hint grows with the queue depth.
func (a *admission) admit(site frag.SiteID) error {
	if n := a.inflight.Add(1); n > a.limit {
		a.inflight.Add(-1)
		hint := time.Duration(n-1) * retryAfterPerInflight
		if hint > maxRetryAfter {
			hint = maxRetryAfter
		}
		return &OverloadError{Site: site, RetryAfter: hint}
	}
	return nil
}

func (a *admission) release() { a.inflight.Add(-1) }

// SetAdmission makes the site shed requests past n running at once (n ≤
// 0 removes the bound). Control kinds are never shed. Call during setup,
// before the site serves.
func (s *Site) SetAdmission(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admit = nil
	if n > 0 {
		s.admit = &admission{limit: int64(n)}
	}
}
