package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/fixtures"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// qualTap sits between an engine and the Fig. 2 cluster: it records every
// triplet an evalQual response carries and every evalQual visit, and can
// fail the next remote stage-2 call (evalQual, or NaiveCentralized's
// fetch) to a site once.
type qualTap struct {
	c *cluster.Cluster

	mu       sync.Mutex
	triplets map[xmltree.FragmentID][]byte
	dups     int // fragments gathered more than once
	visits   map[frag.SiteID]int
	blip     map[frag.SiteID]bool // sites whose next remote stage-2 call fails
}

func (q *qualTap) Call(ctx context.Context, from, to frag.SiteID, req cluster.Request) (cluster.Response, cluster.CallCost, error) {
	if req.Kind != KindEvalQual && req.Kind != KindFetchFragments {
		return q.c.Call(ctx, from, to, req)
	}
	q.mu.Lock()
	fail := from != to && q.blip[to]
	if fail {
		delete(q.blip, to)
	}
	q.mu.Unlock()
	if fail {
		return cluster.Response{}, cluster.CallCost{}, fmt.Errorf("%w: blip at %s", cluster.ErrInjected, to)
	}
	resp, cost, err := q.c.Call(ctx, from, to, req)
	if err != nil || req.Kind != KindEvalQual {
		return resp, cost, err
	}
	fts, err := decodeEvalQualResp(resp.Payload)
	if err != nil {
		return resp, cost, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.visits[to]++
	for _, ft := range fts {
		if _, dup := q.triplets[ft.id]; dup {
			q.dups++
		}
		q.triplets[ft.id] = append([]byte(nil), ft.enc...)
	}
	return resp, cost, nil
}

// Site lets NaiveCentralized read the coordinator's own fragments.
func (q *qualTap) Site(id frag.SiteID) (*cluster.Site, bool) { return q.c.Site(id) }

// deployTapped deploys Fig. 2 behind a fresh qualTap.
func deployTapped(t *testing.T) (*qualTap, *Engine, *frag.Forest) {
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
	tap := &qualTap{
		c:        c,
		triplets: make(map[xmltree.FragmentID][]byte),
		visits:   make(map[frag.SiteID]int),
		blip:     make(map[frag.SiteID]bool),
	}
	for _, siteID := range st.Sites() {
		site := c.AddSite(siteID)
		for _, id := range st.FragmentsAt(siteID) {
			fr, _ := forest.Fragment(id)
			site.AddFragment(fr)
		}
		RegisterHandlers(site, tap, c.Cost())
	}
	return tap, NewEngine(tap, "S0", st, c.Cost()), forest
}

// TestEveryUserGathersTheSameTriplets runs the five users of the one
// gather step against one oracle: whatever the mode, stage 2 must bring
// home, for every fragment exactly once, the bytes bottomUp produces for
// the program the mode sent — and, for the modes that gather the whole
// tree in one step, with one visit per site.
func TestEveryUserGathersTheSameTriplets(t *testing.T) {
	ctx := context.Background()
	sp, err := xpath.CompileSelectString(`//market[name = "NASDAQ"]//stock/code`)
	if err != nil {
		t.Fatal(err)
	}
	boolean := xpath.MustCompileString(`//stock[code = "GOOG" && !(sell = "373")] || //market/name = "NYSE"`)
	// False everywhere, so LazyParBoX cannot stop before the last level.
	nowhere := xpath.MustCompileString(`//nosuch`)

	users := []struct {
		name    string
		prog    *xpath.Program
		oneStep bool
		run     func(tap *qualTap, eng *Engine) error
	}{
		{"ParBoX", boolean, true, func(_ *qualTap, eng *Engine) error {
			_, err := eng.ParBoX(ctx, boolean)
			return err
		}},
		{"ParBoXBatch one root", boolean, true, func(_ *qualTap, eng *Engine) error {
			rep, err := eng.ParBoXBatch(ctx, boolean, []int32{int32(boolean.Root())})
			if err == nil && len(rep.Answers) != 1 {
				err = fmt.Errorf("%d answers for one root", len(rep.Answers))
			}
			return err
		}},
		{"SelectParBoX pass 1", sp.Bool, true, func(_ *qualTap, eng *Engine) error {
			_, err := eng.SelectParBoX(ctx, sp)
			return err
		}},
		{"CountParBoX pass 1", sp.Bool, true, func(_ *qualTap, eng *Engine) error {
			_, err := eng.CountParBoX(ctx, sp)
			return err
		}},
		{"Lazy, fully descended", nowhere, false, func(_ *qualTap, eng *Engine) error {
			rep, err := eng.Lazy(ctx, nowhere)
			if err == nil && rep.Answer {
				err = errors.New("//nosuch answered true")
			}
			return err
		}},
		{"GatherTriplets", boolean, true, func(tap *qualTap, eng *Engine) error {
			a := eval.GetArena()
			defer eval.PutArena(a)
			got, err := GatherTriplets(ctx, tap, eng.Coordinator(), eng.SourceTree(), boolean, 0, a)
			if err != nil {
				return err
			}
			// What it returns is what crossed the wire.
			for id, tr := range got {
				if !bytes.Equal(tr.Encode(), tap.triplets[id]) {
					return fmt.Errorf("fragment %d: returned triplet differs from the response", id)
				}
			}
			if len(got) != len(tap.triplets) {
				return fmt.Errorf("returned %d triplets, gathered %d", len(got), len(tap.triplets))
			}
			return nil
		}},
	}
	for _, u := range users {
		t.Run(u.name, func(t *testing.T) {
			tap, eng, forest := deployTapped(t)
			if err := u.run(tap, eng); err != nil {
				t.Fatal(err)
			}
			for _, id := range forest.IDs() {
				want := fixtureTriplet(forest, u.prog, id).Encode()
				if got, ok := tap.triplets[id]; !ok {
					t.Errorf("fragment %d never gathered", id)
				} else if !bytes.Equal(got, want) {
					t.Errorf("fragment %d: gathered %x, bottomUp gives %x", id, got, want)
				}
			}
			if len(tap.triplets) != forest.Count() || tap.dups != 0 {
				t.Errorf("gathered %d fragments (%d more than once), forest has %d", len(tap.triplets), tap.dups, forest.Count())
			}
			if !u.oneStep {
				return
			}
			for _, site := range eng.SourceTree().Sites() {
				if tap.visits[site] != 1 {
					t.Errorf("evalQual visits at %s = %d, want 1", site, tap.visits[site])
				}
			}
		})
	}
}

// stubTier is a serving tier with fixed placement: it plans the
// deploy-time tree, has no second replica to re-place a job onto, and
// counts what the engine asks of it.
type stubTier struct {
	st *frag.SourceTree

	mu                      sync.Mutex
	plans, reassigns, probe int
}

func (s *stubTier) PlanRound() (*frag.SourceTree, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plans++
	return s.st, nil
}

func (s *stubTier) Reassign(ids []xmltree.FragmentID, _ map[frag.SiteID]bool) (map[frag.SiteID][]xmltree.FragmentID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reassigns++
	return nil, fmt.Errorf("%w: fragment %d (single replica excluded)", ErrFragmentUnavailable, ids[0])
}

func (s *stubTier) Started(frag.SiteID)                        {}
func (s *stubTier) Finished(frag.SiteID, time.Duration, error) {}
func (s *stubTier) Recheck(context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probe++
}

// TestEveryEntryPointRetriesTheSameWay calls each public entry point
// directly — not through Run — on an engine with a tier, with one
// transient stage-2 failure at S1. Each must recover by the one retry
// loop: the job draws once on the budget and finds no other replica (the
// tier's refusal must not surface — S1 is alive), the round retry draws
// again, re-probes and re-plans, and the second attempt succeeds. A
// nested dispatch (Hybrid → NaiveCentralized on this small document)
// must neither re-plan nor open a second budget.
func TestEveryEntryPointRetriesTheSameWay(t *testing.T) {
	ctx := context.Background()
	prog := xpath.MustCompileString(`//stock[code = "YHOO"]`)
	sp, err := xpath.CompileSelectString(`//stock`)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(*Engine) (Report, error){
		"ParBoX":           func(e *Engine) (Report, error) { return e.ParBoX(ctx, prog) },
		"Run(ParBoX)":      func(e *Engine) (Report, error) { return e.Run(ctx, AlgoParBoX, prog) },
		"ParBoXBatch":      func(e *Engine) (Report, error) { return e.ParBoXBatch(ctx, prog, []int32{int32(prog.Root())}) },
		"SelectParBoX":     func(e *Engine) (Report, error) { return e.SelectParBoX(ctx, sp) },
		"CountParBoX":      func(e *Engine) (Report, error) { return e.CountParBoX(ctx, sp) },
		"Lazy":             func(e *Engine) (Report, error) { return e.Lazy(ctx, prog) },
		"NaiveCentralized": func(e *Engine) (Report, error) { return e.NaiveCentralized(ctx, prog) },
		"Hybrid (nested)":  func(e *Engine) (Report, error) { return e.Hybrid(ctx, prog) },
	}
	for name, call := range entries {
		t.Run(name, func(t *testing.T) {
			tap, eng, _ := deployTapped(t)
			tier := &stubTier{st: eng.SourceTree()}
			eng.SetTier(tier)
			eng.SetRetryPolicy(backoff.Policy{Base: time.Microsecond, Budget: 2})
			tap.blip["S1"] = true
			rep, err := call(eng)
			if err != nil {
				t.Fatalf("blip not absorbed: %v", err)
			}
			if rep.Failovers != 2 {
				t.Errorf("Failovers = %d, want 2 (one declined re-placement, one round retry)", rep.Failovers)
			}
			if tier.plans != 2 || tier.probe != 1 || tier.reassigns != 1 {
				t.Errorf("tier saw %d plans, %d rechecks, %d reassigns; want 2, 1, 1", tier.plans, tier.probe, tier.reassigns)
			}

			// The same blip with a budget of one: the declined re-placement
			// spends it, and the round fails with the transport's error.
			eng.SetRetryPolicy(backoff.Policy{Base: time.Microsecond, Budget: 1})
			tap.blip["S1"] = true
			if _, err := call(eng); !errors.Is(err, cluster.ErrInjected) || errors.Is(err, ErrFragmentUnavailable) {
				t.Errorf("budget spent: err = %v, want the injected fault", err)
			}
		})
	}
}

// TestNoTierRoundAllocatesNoRetryState pins what static placement pays
// for the retry loop: nothing. Every entry point's first act is
// withRetry, and without a tier it must hand the attempt the engine
// itself — no per-query copy, no budget.
func TestNoTierRoundAllocatesNoRetryState(t *testing.T) {
	_, eng, _ := deployFig2(t)
	ctx := context.Background()
	sawCopy := false
	attempt := func(e *Engine) (Report, error) {
		if e != eng || e.rr != nil {
			sawCopy = true
		}
		return Report{}, nil
	}
	if n := testing.AllocsPerRun(100, func() { eng.withRetry(ctx, attempt) }); n != 0 {
		t.Errorf("withRetry allocates %v objects without a tier, want 0", n)
	}
	if sawCopy {
		t.Error("withRetry gave a no-tier attempt an engine copy or a retry budget")
	}
}
