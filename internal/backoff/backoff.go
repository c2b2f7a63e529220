// Package backoff is the shared client-side retry discipline: exponential
// delays with full jitter, a hard per-query retry budget, and room for a
// server-provided retry-after hint. Both retry loops of the stack —
// core's per-query loop (round retries and job re-placements) and the
// serving tier's probes — draw their delays from here, so retries can
// never multiply load during an incident: each attempt is strictly
// delayed and the budget bounds the total number of attempts regardless
// of how long the incident lasts.
package backoff

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy parameterizes a retry sequence. The zero value means "use the
// defaults" (see withDefaults); a negative Budget means unlimited
// attempts (the probe loop wants delays forever, never exhaustion).
type Policy struct {
	// Base is the delay ceiling of the first retry; each further retry
	// doubles the ceiling (Multiplier). Default 1ms.
	Base time.Duration
	// Max caps the delay ceiling. Default 100ms.
	Max time.Duration
	// Multiplier grows the ceiling per attempt. Default 2.
	Multiplier float64
	// Budget is the maximum number of retries (not counting the initial
	// attempt). 0 means the default (4); negative means unlimited.
	Budget int
}

// DefaultBudget is the retry budget applied when Policy.Budget is 0.
const DefaultBudget = 4

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 100 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Budget == 0 {
		p.Budget = DefaultBudget
	}
	return p
}

// Retries returns the policy's effective retry budget (unlimited reports
// the raw negative value).
func (p Policy) Retries() int { return p.withDefaults().Budget }

// Retry is one retry sequence drawn from a Policy; safe for concurrent
// use (scatter rounds may consult a shared sequence from several
// goroutines).
type Retry struct {
	mu      sync.Mutex
	pol     Policy
	attempt int
	// The jitter source is built from seed by the first Next that grants
	// a retry: seeding math/rand costs microseconds and kilobytes, and
	// nearly every sequence — one is started per query — never retries.
	seed int64
	rng  *rand.Rand
}

// New starts a retry sequence with a time-seeded jitter source.
func New(pol Policy) *Retry {
	return NewSeeded(pol, time.Now().UnixNano())
}

// NewSeeded starts a retry sequence whose jitter replays deterministically
// from the seed — the chaos tests script exact delay schedules with it.
func NewSeeded(pol Policy, seed int64) *Retry {
	return &Retry{pol: pol.withDefaults(), seed: seed}
}

// Next returns the delay to wait before the next retry and whether the
// budget allows one at all. The delay is full-jitter exponential: uniform
// in [0, min(Max, Base·Multiplier^attempt)) — full jitter desynchronizes
// a thundering herd of retriers where equal or merely randomized-around-
// the-ceiling delays would re-align it. A server-provided hint raises the
// delay to at least the hint: the server knows when it expects capacity,
// and retrying earlier is guaranteed shed work.
func (r *Retry) Next(hint time.Duration) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pol.Budget >= 0 && r.attempt >= r.pol.Budget {
		return 0, false
	}
	ceil := float64(r.pol.Base)
	for i := 0; i < r.attempt; i++ {
		ceil *= r.pol.Multiplier
		if ceil >= float64(r.pol.Max) {
			ceil = float64(r.pol.Max)
			break
		}
	}
	r.attempt++
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed))
	}
	d := time.Duration(r.rng.Float64() * ceil)
	if hint > d {
		d = hint
	}
	return d, true
}

// Attempts reports how many retries Next has granted so far.
func (r *Retry) Attempts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempt
}

// Reset rewinds the sequence to attempt zero (a success ends an
// incident; the next failure starts a fresh sequence).
func (r *Retry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempt = 0
}

// Sleep waits d or until the context is done, returning the context's
// error in the latter case — the delay must never outlive the query it
// delays.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
