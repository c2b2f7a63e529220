package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fixtures"
	"repro/internal/frag"
	"repro/internal/xpath"
)

// deployFaulty builds the Fig. 2 deployment behind a fault-injecting
// transport. Handlers are registered with the faulty transport so that
// site-to-site hops (FullDist, NaiveDistributed) are also subject to
// faults.
func deployFaulty(t *testing.T) (*cluster.FaultyTransport, *Engine) {
	t.Helper()
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	st, err := fixtures.Fig2SourceTree(forest)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.DefaultCostModel())
	ft := &cluster.FaultyTransport{Inner: c}
	for _, siteID := range st.Sites() {
		site := c.AddSite(siteID)
		for _, id := range st.FragmentsAt(siteID) {
			fr, _ := forest.Fragment(id)
			site.AddFragment(fr)
		}
		RegisterHandlers(site, ft, c.Cost())
	}
	return ft, NewEngine(ft, "S0", st, c.Cost())
}

func TestAlgorithmsSurfaceSiteFailure(t *testing.T) {
	prog := xpath.MustCompileString(`//stock[code = "YHOO"]`)
	ctx := context.Background()
	for _, algo := range Algorithms() {
		ft, eng := deployFaulty(t)
		ft.FailSites = map[frag.SiteID]bool{"S2": true}
		_, err := eng.Run(ctx, algo, prog)
		if err == nil {
			t.Errorf("%s: succeeded with S2 down", algo)
			continue
		}
		if !errors.Is(err, cluster.ErrInjected) {
			t.Errorf("%s: error %v does not wrap the injected fault", algo, err)
		}
	}
}

func TestAlgorithmsSurfaceCorruptResponses(t *testing.T) {
	prog := xpath.MustCompileString(`//stock[code = "YHOO"]`)
	ctx := context.Background()
	for algo, kind := range map[Algorithm]string{
		AlgoParBoX:           KindEvalQual,
		AlgoNaiveCentralized: KindFetchFragments,
		AlgoNaiveDistributed: KindResolve,
		AlgoFullDist:         KindResolve,
		AlgoLazy:             KindEvalQual,
	} {
		ft, eng := deployFaulty(t)
		ft.CorruptKinds = map[string]bool{kind: true}
		if _, err := eng.Run(ctx, algo, prog); err == nil {
			t.Errorf("%s: accepted a truncated %s response", algo, kind)
		}
	}
}

func TestSelectSurfacesFailure(t *testing.T) {
	ft, eng := deployFaulty(t)
	ft.FailKinds = map[string]bool{KindSelectTransfer: true}
	sp, err := xpath.CompileSelectString(`//stock`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SelectParBoX(context.Background(), sp); err == nil {
		t.Error("selection succeeded with visit 2 blocked")
	}
}

func TestEveryNthFailureNeverHangs(t *testing.T) {
	// Sweep a failure raster over every algorithm; every run must either
	// produce the right answer or an error — never hang, never lie.
	prog := xpath.MustCompileString(`//stock[code = "YHOO"]`)
	for n := 1; n <= 6; n++ {
		for _, algo := range Algorithms() {
			ft, eng := deployFaulty(t)
			ft.FailEveryN = n
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			rep, err := eng.Run(ctx, algo, prog)
			cancel()
			if err == nil && !rep.Answer {
				t.Errorf("%s with FailEveryN=%d returned a wrong answer", algo, n)
			}
		}
	}
}

// TestConcurrentQueries runs many queries of different shapes through one
// engine concurrently; results must stay independent and correct.
func TestConcurrentQueries(t *testing.T) {
	_, eng, orig := deployFig2(t)
	ctx := context.Background()
	type job struct {
		src  string
		algo Algorithm
	}
	var jobs []job
	for _, src := range fig2Queries {
		for _, algo := range []Algorithm{AlgoParBoX, AlgoNaiveDistributed, AlgoFullDist, AlgoLazy} {
			jobs = append(jobs, job{src, algo})
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		for k := 0; k < 3; k++ {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				prog := xpath.MustCompileString(j.src)
				want := xpath.EvalRaw(xpath.MustParse(j.src), orig)
				rep, err := eng.Run(ctx, j.algo, prog)
				if err != nil {
					t.Errorf("%s(%q): %v", j.algo, j.src, err)
					return
				}
				if rep.Answer != want {
					t.Errorf("%s(%q) = %v, want %v", j.algo, j.src, rep.Answer, want)
				}
			}(j)
		}
	}
	wg.Wait()
}
