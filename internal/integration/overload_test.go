// Deadline propagation over real sockets: an exhausted budget must stop
// the work at the serving sites, not just at the coordinator. The
// observable is the sites' versioned triplet caches — bottomUp work is
// exactly what populates them, so a run that was stopped server-side
// leaves every cache cold.
package integration

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/xmark"
	"repro/internal/xpath"
)

// TestDeadlineExpiredOverTCP pins the already-expired contract end to
// end over wire v2: a zero-budget deadline fails the run immediately
// with context.DeadlineExceeded, and the sites performed zero bottomUp
// steps — the next (warm-capable) run still misses every cache entry.
func TestDeadlineExpiredOverTCP(t *testing.T) {
	w := newTCPWorld(t)
	w.tcpEng.EnableTripletCache(true)
	prog := xpath.MustCompileString(xmark.Queries[8])

	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	start := time.Now()
	_, err := w.tcpEng.ParBoX(expired, prog)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired run: err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("expired run took %v — the deadline did not stop the work", took)
	}

	// Had any site run bottomUp during the expired call, its triplet
	// cache would now hold that (version, fingerprint) entry and this run
	// would report hits. All-miss proves the sites never started.
	rep, err := w.tcpEng.ParBoX(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 {
		t.Fatalf("run after expired call reported %d cache hits — the expired call did server-side work", rep.CacheHits)
	}
	if rep.CacheMisses == 0 {
		t.Fatal("run after expired call reported no cache misses (cache not exercised; observable broken)")
	}

	// Sanity: the observable detects work — a further warm run hits.
	rep, err = w.tcpEng.ParBoX(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits == 0 {
		t.Fatal("warm run reported zero hits (cache observable broken)")
	}
}

// TestDeadlineBudgetPropagates pins that a finite remaining budget
// reaches the sites over the wire: a budget far smaller than the
// document's evaluation time fails with the deadline error (typed by the
// server, not a client-side socket teardown), while a generous one
// succeeds.
func TestDeadlineBudgetPropagates(t *testing.T) {
	w := newTCPWorld(t)
	prog := xpath.MustCompileString(xmark.Queries[8])

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
	defer cancel()
	if _, err := w.tcpEng.ParBoX(ctx, prog); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("50µs budget: err = %v, want context.DeadlineExceeded", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := w.tcpEng.ParBoX(ctx2, prog); err != nil {
		t.Fatalf("60s budget: %v", err)
	}
}
