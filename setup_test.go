package parbox

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestSameSiteHopRunsUnderParentAdmission: on durableForest F0 and F1
// both live at S0. Under WithAdmissionLimit(1) the resolve of F0 holds
// S0's only slot while its child hop to F1 asks S0 again; that hop runs
// under the admission its parent holds, so an idle system sheds nothing.
func TestSameSiteHopRunsUnderParentAdmission(t *testing.T) {
	ctx := context.Background()
	forest, assign := durableForest(t)
	sys, err := Deploy(forest, assign, WithAdmissionLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, src := range durableQueries {
		q := MustPrepare(src)
		want, err := EvaluateLocal(durableDoc(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{AlgoNaiveDistributed, AlgoFullDist} {
			res, err := sys.Exec(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%s %q: %v", algo, src, err)
			}
			if res.Answer != want {
				t.Errorf("%s %q = %v, want %v", algo, src, res.Answer, want)
			}
		}
	}
	if n := sys.Sheds(); n != 0 {
		t.Errorf("Sheds() = %d on an idle system, want 0", n)
	}
}

// TestDurableAddSiteSplitSurvivesRestore: on a WithDurability system a
// site added with AddSite gets a store of its own, so a fragment that
// View.Split moves onto it is journaled, and a clean Close then Restore
// brings back the split topology with the same answers.
func TestDurableAddSiteSplitSurvivesRestore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	forest, assign := durableForest(t)
	sys, err := Deploy(forest, assign, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSite("S3"); err != nil {
		t.Fatal(err)
	}
	vRes, err := sys.Exec(ctx, MustPrepare(durableQueries[1]), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	// F1 is the first <sec>; path [1] is its <b><bb/></b> subtree.
	newID, _, err := vRes.View.Split(ctx, 1, []int{1}, "S3")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	rest, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	if site, ok := rest.SourceTree().Site(newID); !ok || site != "S3" {
		t.Fatalf("restored fragment %d at %q (%v), want S3", newID, site, ok)
	}
	for _, src := range durableQueries {
		q := MustPrepare(src)
		want, err := EvaluateLocal(durableDoc(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algorithms() {
			res, err := rest.Exec(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("restored %s %q: %v", algo, src, err)
			}
			if res.Answer != want {
				t.Errorf("restored %s %q = %v, want %v", algo, src, res.Answer, want)
			}
		}
	}
}

// setupPaths builds a system over durableForest through each facade
// entry point, with opts applied.
var setupPaths = []struct {
	name   string
	deploy func(t *testing.T, opts ...Option) (*System, error)
}{
	{"Deploy", func(t *testing.T, opts ...Option) (*System, error) {
		forest, assign := durableForest(t)
		return Deploy(forest, assign, opts...)
	}},
	{"Deploy+WithReplication(2)+WithFailover", func(t *testing.T, opts ...Option) (*System, error) {
		forest, assign := durableForest(t)
		return Deploy(forest, assign, append(opts, WithReplication(2), WithFailover(),
			withServeOptions(serve.Options{ProbeInterval: -1}))...)
	}},
	{"DeployReplicated", func(t *testing.T, opts ...Option) (*System, error) {
		forest, _ := durableForest(t)
		return DeployReplicated(forest, ReplicaMap{0: {"S0", "S1"}, 1: {"S0"}, 2: {"S1", "S2"}, 3: {"S2"}},
			PlaceFirst, opts...)
	}},
	{"Restore", func(t *testing.T, opts ...Option) (*System, error) {
		dir := t.TempDir()
		forest, assign := durableForest(t)
		sys, err := Deploy(forest, assign, WithDurability(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return Restore(dir, opts...)
	}},
}

// TestEverySetupPathSetsUpEverySite: whichever entry point built the
// system, and for a site AddSite added to it too, every site sheds a
// second concurrent call past WithAdmissionLimit(1) and answers
// obs.stats, and the system serves WithIntrospection.
func TestEverySetupPathSetsUpEverySite(t *testing.T) {
	ctx := context.Background()
	for _, p := range setupPaths {
		t.Run(p.name, func(t *testing.T) {
			sys, err := p.deploy(t, WithAdmissionLimit(1), WithIntrospection("127.0.0.1:0"))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if sys.IntrospectionAddr() == "" {
				t.Error("WithIntrospection started no server")
			}
			if err := sys.AddSite("added"); err != nil {
				t.Fatal(err)
			}
			ids := sys.cluster.Sites()
			if len(ids) < 4 {
				t.Fatalf("sites = %v, want the three deployed plus the added one", ids)
			}
			for _, id := range ids {
				site, _ := sys.cluster.Site(id)
				resp, _, err := sys.cluster.Call(ctx, "probe", id, cluster.Request{Kind: cluster.StatsKind})
				if err != nil {
					t.Errorf("%s: obs.stats: %v", id, err)
				} else if snap, err := obs.DecodeSiteStats(resp.Payload); err != nil || snap.Site != string(id) {
					t.Errorf("%s: obs.stats answered %+v, %v", id, snap, err)
				}

				// The first call blocks holding its slot; any later one that
				// is admitted returns at once.
				entered, release := make(chan struct{}), make(chan struct{})
				var calls atomic.Int32
				site.Handle("test.block", func(context.Context, *cluster.Site, cluster.Request) (cluster.Response, error) {
					if calls.Add(1) == 1 {
						close(entered)
						<-release
					}
					return cluster.Response{}, nil
				})
				first := cluster.Go(ctx, sys.cluster, "probe", id, cluster.Request{Kind: "test.block"})
				<-entered
				_, _, err = sys.cluster.Call(ctx, "probe", id, cluster.Request{Kind: "test.block"})
				close(release)
				if !errors.Is(err, cluster.ErrOverloaded) {
					t.Errorf("%s: second concurrent call under WithAdmissionLimit(1): err = %v, want overloaded", id, err)
				}
				if r := <-first; r.Err != nil {
					t.Errorf("%s: admitted call: %v", id, r.Err)
				}
			}
		})
	}
}

// TestRestoreRefusesReplicationOptions: a durable deployment is
// unreplicated, so Restore refuses the options that need replicas
// instead of ignoring them.
func TestRestoreRefusesReplicationOptions(t *testing.T) {
	dir := t.TempDir()
	forest, assign := durableForest(t)
	sys, err := Deploy(forest, assign, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Option{
		"WithReplication": WithReplication(2),
		"WithFailover":    WithFailover(),
		"WithHedging":     WithHedging(0),
		"WithRebalancing": WithRebalancing(0),
	} {
		if rest, err := Restore(dir, opt); err == nil {
			rest.Close()
			t.Errorf("Restore accepted %s", name)
		}
	}
}

// TestConcurrentAddSiteAndCheckpoint: AddSite adds durable stores while
// Checkpoint drains them, and every added site's store survives into
// Restore.
func TestConcurrentAddSiteAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	forest, assign := durableForest(t)
	sys, err := Deploy(forest, assign, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	const added = 4
	var wg sync.WaitGroup
	for i := 0; i < added; i++ {
		wg.Add(2)
		go func(id SiteID) {
			defer wg.Done()
			if err := sys.AddSite(id); err != nil {
				t.Error(err)
			}
		}(SiteID(fmt.Sprintf("N%d", i)))
		go func() {
			defer wg.Done()
			if err := sys.Checkpoint(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	rest, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	if got, want := len(rest.cluster.Sites()), 3+added; got != want {
		t.Errorf("restored %d sites %v, want %d", got, rest.cluster.Sites(), want)
	}
}
