package parbox

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/xmark"
)

// failoverForest builds the standard 4-fragment star document; built twice
// with the same seed it yields identical trees, so one deployment can serve
// as the never-faulted reference for another.
func failoverForest(t *testing.T) (*Forest, Assignment) {
	t.Helper()
	root, sites, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       23,
		Parents:    xmark.StarParents(4),
		MBs:        []float64{0.2, 0.4, 0.3, 0.3},
		NodesPerMB: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := xmark.Fragment(root, sites)
	if err != nil {
		t.Fatal(err)
	}
	assign := Assignment{}
	for i := range sites {
		assign[FragmentID(i)] = SiteID(fmt.Sprintf("S%d", i))
	}
	return forest, assign
}

// deployFaulty deploys a 2x-replicated failover system whose transport
// runs through a FaultyTransport, returning both. The background prober
// is disabled so health transitions happen only on scripted CheckHealth
// calls and passive query signals — fully deterministic.
func deployFaulty(t *testing.T, opts ...Option) (*System, *cluster.FaultyTransport) {
	t.Helper()
	forest, assign := failoverForest(t)
	var ft *cluster.FaultyTransport
	all := append([]Option{
		WithReplication(2),
		WithFailover(),
		withServeOptions(serve.Options{ProbeInterval: -1, DownAfter: 2}),
		withTransportWrapper(func(tr cluster.Transport) cluster.Transport {
			ft = &cluster.FaultyTransport{Inner: tr}
			return ft
		}),
	}, opts...)
	sys, err := Deploy(forest, assign, all...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, ft
}

var failoverQueries = []string{
	`//item[quantity]`,
	`//item[quantity] && //name`,
	`//keyword || //emph`,
	`//listitem`,
}

// referenceAnswers computes every query's answer on an identical but
// never-faulted, never-replicated deployment.
func referenceAnswers(t *testing.T) map[string]bool {
	t.Helper()
	forest, assign := failoverForest(t)
	ref, err := Deploy(forest, assign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	ctx := context.Background()
	out := make(map[string]bool, len(failoverQueries))
	for _, src := range failoverQueries {
		res, err := ref.Exec(ctx, MustPrepare(src))
		if err != nil {
			t.Fatal(err)
		}
		out[src] = res.Answer
	}
	return out
}

// pickVictim returns a replica site that is not the coordinator (the
// coordinator's calls to itself are local and cannot be failed by the
// transport wrapper).
func pickVictim(t *testing.T, sys *System) SiteID {
	t.Helper()
	for _, sites := range sys.Replicas() {
		for _, s := range sites {
			if s != sys.Coordinator() {
				return s
			}
		}
	}
	t.Fatal("no non-coordinator replica site")
	return ""
}

// TestFailoverSingleSiteKill is the deterministic half of the
// differential test: kill one replica site and verify every algorithm
// still produces exactly the reference answers, with the recovery visible
// in Result.Failovers and the tier's health snapshot. The site dies
// before the first query, while every health score is still virgin: the
// first round is guaranteed to plan onto it, so the recovery must happen
// in flight.
func TestFailoverSingleSiteKill(t *testing.T) {
	ref := referenceAnswers(t)
	sys, ft := deployFaulty(t)
	ctx := context.Background()
	victim := pickVictim(t, sys)

	ft.SiteDown(victim)
	res, err := sys.Exec(ctx, MustPrepare(failoverQueries[0]))
	if err != nil {
		t.Fatalf("query with %s down: %v", victim, err)
	}
	if res.Answer != ref[failoverQueries[0]] {
		t.Fatalf("failover answer %v, reference %v", res.Answer, ref[failoverQueries[0]])
	}
	if res.Failovers == 0 {
		t.Fatal("expected in-flight failovers with the planned site down")
	}
	if st := sys.ServeStats(); st.Reassigns == 0 {
		t.Fatal("serving tier recorded no reassignments")
	}

	// Probe sweeps take the victim the rest of the way to Down
	// (DownAfter=2; the in-flight failure above already counted once)...
	sys.CheckHealth(ctx)
	sys.CheckHealth(ctx)
	if got := sys.Health()[victim].State; got != SiteDown {
		t.Fatalf("victim state = %v, want down", got)
	}
	// ...after which every algorithm routes around it: correct answers,
	// and no victim visits for the default algorithm.
	for _, src := range failoverQueries {
		for _, algo := range Algorithms() {
			res, err := sys.Exec(ctx, MustPrepare(src), WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%v %s with %s down: %v", algo, src, victim, err)
			}
			if res.Answer != ref[src] {
				t.Fatalf("%v: %s = %v, reference %v", algo, src, res.Answer, ref[src])
			}
		}
		res, err := sys.Exec(ctx, MustPrepare(src))
		if err != nil {
			t.Fatal(err)
		}
		if res.Visits[victim] != 0 {
			t.Fatalf("down victim %s still visited %d times", victim, res.Visits[victim])
		}
	}
	// Select and count survive too (the same retry loop).
	cnt, err := sys.Exec(ctx, MustPrepare(`//item`), WithMode(ModeCount))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := sys.Exec(ctx, MustPrepare(`//item`), WithMode(ModeSelect))
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Matched != sel.Matched {
		t.Fatalf("count %d != select %d with a site down", cnt.Matched, sel.Matched)
	}

	// Revive: successful probes promote Down -> Suspect -> Up, and
	// serving returns to normal — exact answers, zero recoveries.
	ft.ReviveSite(victim)
	sys.CheckHealth(ctx)
	sys.CheckHealth(ctx)
	if got := sys.Health()[victim].State; got != SiteUp {
		t.Fatalf("revived victim state = %v, want up", got)
	}
	for _, src := range failoverQueries {
		res, err := sys.Exec(ctx, MustPrepare(src))
		if err != nil {
			t.Fatal(err)
		}
		if res.Answer != ref[src] {
			t.Fatalf("post-revive: %s = %v, reference %v", src, res.Answer, ref[src])
		}
		if res.Failovers != 0 {
			t.Fatalf("post-revive: %s reported %d failovers on a healthy cluster", src, res.Failovers)
		}
	}
}

// TestFailoverFragmentUnavailable pins the loud-degradation contract:
// when every replica of a fragment is dead the query fails with
// ErrFragmentUnavailable — never a silently partial answer.
func TestFailoverFragmentUnavailable(t *testing.T) {
	sys, ft := deployFaulty(t)
	ctx := context.Background()

	// Kill every replica of some fragment served away from the
	// coordinator (the coordinator's own calls cannot be failed).
	var doomed []SiteID
	for _, sites := range sys.Replicas() {
		coordHeld := false
		for _, s := range sites {
			if s == sys.Coordinator() {
				coordHeld = true
			}
		}
		if !coordHeld {
			doomed = sites
			break
		}
	}
	if doomed == nil {
		t.Skip("every fragment has a coordinator-local replica")
	}
	for _, s := range doomed {
		ft.SiteDown(s)
	}

	// In-flight path: health still says Up, so the round plans onto the
	// dead sites, exhausts both replicas and fails loudly.
	_, err := sys.Exec(ctx, MustPrepare(failoverQueries[0]))
	if !errors.Is(err, ErrFragmentUnavailable) {
		t.Fatalf("in-flight exhaustion: err = %v, want ErrFragmentUnavailable", err)
	}

	// Planning path: once probes mark the sites Down, the round refuses
	// to plan at all — same typed error.
	sys.CheckHealth(ctx)
	sys.CheckHealth(ctx)
	_, err = sys.Exec(ctx, MustPrepare(failoverQueries[0]))
	if !errors.Is(err, ErrFragmentUnavailable) {
		t.Fatalf("planning: err = %v, want ErrFragmentUnavailable", err)
	}

	// Revival restores exact service.
	for _, s := range doomed {
		ft.ReviveSite(s)
	}
	sys.CheckHealth(ctx)
	sys.CheckHealth(ctx)
	if _, err := sys.Exec(ctx, MustPrepare(failoverQueries[0])); err != nil {
		t.Fatalf("post-revive: %v", err)
	}
}

// TestFailoverConcurrentKillRevive is the concurrent half of the
// differential test (run under -race): workers stream queries over every
// algorithm while a fault script kills and revives a site mid-stream.
// Every answer must match the never-faulted reference; with a replica
// surviving throughout, no query may fail.
func TestFailoverConcurrentKillRevive(t *testing.T) {
	ref := referenceAnswers(t)
	sys, ft := deployFaulty(t)
	victim := pickVictim(t, sys)
	ctx := context.Background()

	var failoversSeen atomic.Int64
	stop := make(chan struct{})
	var script sync.WaitGroup
	script.Add(1)
	go func() {
		defer script.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				ft.SiteDown(victim)
			} else {
				ft.ReviveSite(victim)
				sys.CheckHealth(ctx)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	algos := Algorithms()
	var workers sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 12; i++ {
				src := failoverQueries[(w+i)%len(failoverQueries)]
				algo := algos[(w*3+i)%len(algos)]
				res, err := sys.Exec(ctx, MustPrepare(src), WithAlgorithm(algo))
				if err != nil {
					errc <- fmt.Errorf("%v %s: %w", algo, src, err)
					return
				}
				if res.Answer != ref[src] {
					errc <- fmt.Errorf("%v: %s = %v, reference %v", algo, src, res.Answer, ref[src])
					return
				}
				failoversSeen.Add(res.Failovers)
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	script.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The script left the victim in an unknown state; recover and verify
	// exact service once more.
	ft.ReviveSite(victim)
	sys.CheckHealth(ctx)
	sys.CheckHealth(ctx)
	for _, src := range failoverQueries {
		res, err := sys.Exec(ctx, MustPrepare(src))
		if err != nil {
			t.Fatal(err)
		}
		if res.Answer != ref[src] {
			t.Fatalf("final: %s = %v, reference %v", src, res.Answer, ref[src])
		}
	}
}

// TestRebalanceMovesHotFragment deploys with the coordinator holding only
// the root fragment while two other sites share everything else. Remote
// traffic then lands entirely on those two — the coordinator's own calls
// are local and free — so a rebalancing pass must migrate a fragment from
// the hottest site onto the idle coordinator, bumping the migration
// counter and widening the fragment's replica list.
func TestRebalanceMovesHotFragment(t *testing.T) {
	forest, _ := failoverForest(t)
	sys, err := DeployReplicated(forest, ReplicaMap{
		0: {"A"},
		1: {"B", "C"},
		2: {"B", "C"},
		3: {"B", "C"},
	}, PlaceFirst,
		WithFailover(),
		WithRebalancing(0), // manual passes only
		withServeOptions(serve.Options{ProbeInterval: -1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	for i := 0; i < 20; i++ {
		if _, err := sys.Exec(ctx, MustPrepare(failoverQueries[i%len(failoverQueries)])); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.Replicas()
	moved, err := sys.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("rebalance moved %d fragments, want 1", moved)
	}
	if got := sys.ServeStats().Migrations; got != 1 {
		t.Fatalf("migrations counter %d, want 1", got)
	}
	after := sys.Replicas()
	widened := FragmentID(-1)
	for id, sites := range after {
		if len(sites) > len(before[id]) {
			widened = id
		}
	}
	if widened < 0 {
		t.Fatal("migration reported but no replica list widened")
	}
	onCoord := false
	for _, s := range after[widened] {
		if s == "A" {
			onCoord = true
		}
	}
	if !onCoord {
		t.Fatalf("fragment %d widened to %v, expected the idle coordinator A", widened, after[widened])
	}
	// Service is still exact after the move.
	ref := referenceAnswers(t)
	for _, src := range failoverQueries {
		res, err := sys.Exec(ctx, MustPrepare(src))
		if err != nil {
			t.Fatal(err)
		}
		if res.Answer != ref[src] {
			t.Fatalf("post-migration: %s = %v, reference %v", src, res.Answer, ref[src])
		}
	}
}

// blipTransport fails the first remote evalQual call to each site exactly
// once and is transparent otherwise: every site stays alive throughout,
// so nothing it does may ever surface as ErrFragmentUnavailable.
type blipTransport struct {
	cluster.Transport

	mu      sync.Mutex
	blipped map[SiteID]bool
}

func (b *blipTransport) Call(ctx context.Context, from, to SiteID, req cluster.Request) (cluster.Response, cluster.CallCost, error) {
	if from != to && req.Kind == core.KindEvalQual {
		b.mu.Lock()
		first := !b.blipped[to]
		b.blipped[to] = true
		b.mu.Unlock()
		if first {
			return cluster.Response{}, cluster.CallCost{}, fmt.Errorf("%w: blip at %s", cluster.ErrInjected, to)
		}
	}
	return b.Transport.Call(ctx, from, to, req)
}

// TestFailoverEveryModeAbsorbsTransientBlip pins that every Exec call
// shape recovers the same way: with one transient evalQual failure per
// non-coordinator site and every replica alive, each mode returns the
// reference result with the recovery visible in Result.Failovers, and
// none reports a fragment unavailable. Under WithRetryBudget(1) a call
// may run out of budget — failing with the injected error, never a false
// ErrFragmentUnavailable — and one that succeeds spent at most the
// budget.
func TestFailoverEveryModeAbsorbsTransientBlip(t *testing.T) {
	ref := referenceAnswers(t)
	ctx := context.Background()

	forest, assign := failoverForest(t)
	refSys, err := Deploy(forest, assign)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { refSys.Close() })
	items, err := refSys.Exec(ctx, MustPrepare(`//item`), WithMode(ModeCount))
	if err != nil {
		t.Fatal(err)
	}

	boolean := func(t *testing.T, res *Result) {
		if res.Answer != ref[failoverQueries[0]] {
			t.Fatalf("answer %v, reference %v", res.Answer, ref[failoverQueries[0]])
		}
	}
	matched := func(t *testing.T, res *Result) {
		if res.Matched != items.Matched {
			t.Fatalf("matched %d, reference %d", res.Matched, items.Matched)
		}
	}
	modes := []struct {
		name  string
		query string
		opts  []ExecOption
		check func(*testing.T, *Result)
	}{
		{"plain", failoverQueries[0], nil, boolean},
		{"batch", failoverQueries[0], []ExecOption{WithBatch(MustPrepare(failoverQueries[1]), MustPrepare(failoverQueries[2]))},
			func(t *testing.T, res *Result) {
				for i, src := range failoverQueries[:3] {
					if res.Answers[i] != ref[src] {
						t.Fatalf("batch answer %d (%s) = %v, reference %v", i, src, res.Answers[i], ref[src])
					}
				}
			}},
		{"coalesced", failoverQueries[0], []ExecOption{WithCoalescing()}, boolean},
		{"select", `//item`, []ExecOption{WithMode(ModeSelect)}, matched},
		{"count", `//item`, []ExecOption{WithMode(ModeCount)}, matched},
	}
	for _, budget := range []int{0, 1} { // 0 = the default budget of 4
		for _, m := range modes {
			t.Run(fmt.Sprintf("%s/budget=%d", m.name, budget), func(t *testing.T) {
				sys, _ := deployFaulty(t, WithRetryBudget(budget),
					withTransportWrapper(func(tr cluster.Transport) cluster.Transport {
						return &blipTransport{Transport: tr, blipped: make(map[SiteID]bool)}
					}))
				res, err := sys.Exec(ctx, MustPrepare(m.query), m.opts...)
				if errors.Is(err, ErrFragmentUnavailable) {
					t.Fatalf("every replica is alive, yet: %v", err)
				}
				if budget == 0 {
					if err != nil {
						t.Fatalf("blip not absorbed: %v", err)
					}
					if res.Failovers < 1 {
						t.Fatalf("Failovers = %d, want the recovery counted", res.Failovers)
					}
					m.check(t, res)
					return
				}
				if err == nil {
					if res.Failovers > int64(budget) {
						t.Fatalf("Failovers = %d under WithRetryBudget(%d)", res.Failovers, budget)
					}
					m.check(t, res)
					return
				}
				if !errors.Is(err, cluster.ErrInjected) {
					t.Fatalf("budget spent: err = %v, want the injected fault", err)
				}
				// The blips are used up: the same call now goes through.
				if res, err = sys.Exec(ctx, MustPrepare(m.query), m.opts...); err != nil {
					t.Fatalf("after the blip: %v", err)
				}
				m.check(t, res)
			})
		}
	}
}
