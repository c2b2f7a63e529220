package parbox

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestExecTimeoutAlreadyExpired pins WithTimeout's already-expired
// contract: a zero or negative budget fails immediately with
// context.DeadlineExceeded — matching a caller that passes along an
// exhausted deadline — instead of being treated as "no timeout".
func TestExecTimeoutAlreadyExpired(t *testing.T) {
	forest, assign := failoverForest(t)
	sys, err := Deploy(forest, assign)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, d := range []time.Duration{0, -time.Second} {
		start := time.Now()
		_, err := sys.Exec(context.Background(), MustPrepare(failoverQueries[0]), WithTimeout(d))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("WithTimeout(%v): err = %v, want context.DeadlineExceeded", d, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("WithTimeout(%v): already-expired call took %v", d, took)
		}
	}
}

// chaosVictims returns the non-coordinator replica sites, sorted — the
// fault script assigns one failure mode to each.
func chaosVictims(sys *System) []SiteID {
	seen := map[SiteID]bool{}
	var out []SiteID
	for _, sites := range sys.Replicas() {
		for _, s := range sites {
			if s != sys.Coordinator() && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// chaosRun fires a concurrent query stream at a replicated failover
// deployment with the overload-protection stack armed (retry budget,
// hedging, per-site admission) and, when faulted, a seeded chaos script:
// one replica slow, one flaky, one persistently shedding. It checks
// every answer against ref and returns the per-query results plus the
// total transport call count.
func chaosRun(t *testing.T, ref map[string]bool, seed int64, faulted bool, budget int) ([]*Result, int) {
	t.Helper()
	sys, ft := deployFaulty(t,
		WithRetryBudget(budget),
		WithHedging(500*time.Microsecond),
		WithAdmissionLimit(8),
	)
	if faulted {
		victims := chaosVictims(sys)
		if len(victims) < 3 {
			t.Fatalf("need 3 non-coordinator victims, have %v", victims)
		}
		ft.SlowSite(victims[0], 4*time.Millisecond, rand.NewSource(seed))
		ft.FlakySite(victims[1], 0.10, rand.NewSource(seed+1))
		ft.OverloadSite(victims[2], time.Millisecond)
	}
	const workers, perWorker = 8, 10
	results := make([]*Result, workers*perWorker)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				src := failoverQueries[(w+i)%len(failoverQueries)]
				res, err := sys.Exec(context.Background(), MustPrepare(src))
				if err != nil {
					errc <- fmt.Errorf("worker %d %s: %w", w, src, err)
					return
				}
				if res.Answer != ref[src] {
					errc <- fmt.Errorf("worker %d: %s = %v, reference %v", w, src, res.Answer, ref[src])
					return
				}
				results[w*perWorker+i] = res
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return results, ft.Calls()
}

// TestChaosDifferentialSeeded is the overload-safety differential (run
// it under -race): against a seeded chaos script — one replica slow,
// one flaky, one shedding every call, plus real per-site admission
// limits — every answer must match the oracle's reference, every
// query must stay within its retry budget, hedges must never
// double-count, and total transport traffic must stay within a small
// constant factor of the unfaulted baseline (retries recover; they do
// not storm).
func TestChaosDifferentialSeeded(t *testing.T) {
	ref := referenceAnswers(t)
	const budget = 12

	_, baseCalls := chaosRun(t, ref, 0, false, budget)
	results, calls := chaosRun(t, ref, 42, true, budget)

	var hedges, wins, failovers int64
	for i, res := range results {
		if res.Failovers > budget {
			t.Errorf("query %d spent %d recoveries, budget %d", i, res.Failovers, budget)
		}
		if res.HedgeWins > res.Hedges {
			t.Errorf("query %d: %d hedge wins out of %d hedges", i, res.HedgeWins, res.Hedges)
		}
		hedges += res.Hedges
		wins += res.HedgeWins
		failovers += res.Failovers
	}
	if hedges == 0 {
		t.Error("no hedge fired against a 4ms-slow replica with a 500µs hedge delay")
	}
	if wins == 0 {
		t.Error("no hedge ever won against a 4ms-slow replica")
	}
	if failovers == 0 {
		t.Error("chaos script injected faults but no query recorded a recovery")
	}
	// No retry storm: recovery adds re-placements, round retries and
	// re-probes, all drawn from per-query budgets — total traffic stays
	// linear in the number of queries.
	if baseCalls == 0 {
		t.Fatal("baseline run made no transport calls")
	}
	if calls > 4*baseCalls {
		t.Errorf("faulted run made %d transport calls, >4x the unfaulted %d (retry storm?)", calls, baseCalls)
	}
	// The seeded script replays: the same seed drives the same per-site
	// fault schedule (scheduling may interleave differently, but answers
	// and invariants must hold identically).
	results2, _ := chaosRun(t, ref, 42, true, budget)
	for i, res := range results2 {
		if res.Failovers > budget {
			t.Errorf("replay query %d spent %d recoveries, budget %d", i, res.Failovers, budget)
		}
	}
}
