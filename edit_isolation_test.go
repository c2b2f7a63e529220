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
	"repro/internal/eval"
)

// deployEditForest deploys durableForest for the edit-isolation tests. With
// tcp set, every site also serves loopback TCP and Exec reaches the sites
// over the wire; view maintenance stays in process either way.
func deployEditForest(t *testing.T, tcp bool) *System {
	t.Helper()
	forest, assign := durableForest(t)
	var opts []Option
	var tr *cluster.TCPTransport
	if tcp {
		tr = cluster.NewTCPTransport(nil)
		t.Cleanup(func() { tr.Close() })
		opts = append(opts, withTransportWrapper(func(cluster.Transport) cluster.Transport { return tr }))
	}
	sys, err := Deploy(forest, assign, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if tcp {
		addrs := make(map[SiteID]string)
		for _, id := range sys.cluster.Sites() {
			site, _ := sys.cluster.Site(id)
			srv, err := cluster.Serve(site, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[id] = srv.Addr()
		}
		tr.SetAddrs(addrs)
	}
	return sys
}

// materialize installs src as a maintained view of sys.
func materialize(t *testing.T, sys *System, src string) *View {
	t.Helper()
	res, err := sys.Exec(context.Background(), MustPrepare(src), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	return res.View
}

// TestReadersBesideEdits runs readers beside in-place edits of the
// fragment they read: content updates, and a split and merge of it. Run
// with -race: a reader must never evaluate a tree while a writer changes
// it, and every answer must be the oracle's (no edit here changes it).
func TestReadersBesideEdits(t *testing.T) {
	ctx := context.Background()
	q := MustPrepare(`//d[text() = "w"] && //sec`)
	want, err := EvaluateLocal(durableDoc(), q)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("updates", func(t *testing.T) {
		sys := deployEditForest(t, false)
		v := materialize(t, sys, `//n`)
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := v.Update(ctx, 2, []UpdateOp{{Op: OpInsert, Label: "n", Text: "t"}}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < 200; i++ {
			res, err := sys.Exec(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Answer != want {
				t.Fatalf("run %d: answer %v, want %v", i, res.Answer, want)
			}
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !v.Answer() {
			t.Error("the view missed its inserts")
		}
	})

	// Readers solve over the view's current source tree, so they follow
	// the fragmentation. One that took the tree before a split or merge
	// and reads the sites after it fails loudly (an unresolved variable,
	// or a fragment its site no longer stores): a catalog snapshot that
	// sites check is ROADMAP item 2. It never answers wrong.
	t.Run("split-merge", func(t *testing.T) {
		sys := deployEditForest(t, false)
		v := materialize(t, sys, `//d`)
		var stop atomic.Bool
		var pairs int
		errc := make(chan error, 1)
		go func() {
			// Fragment 2 is at S1: split it there, then to S2, and merge
			// each time.
			for ; !stop.Load(); pairs++ {
				target := []SiteID{"S1", "S2"}[pairs%2]
				id, _, err := v.Split(ctx, 2, []int{0}, target)
				if err == nil {
					_, err = v.Merge(ctx, 2, id)
				}
				if err != nil {
					errc <- fmt.Errorf("pair %d (to %s): %w", pairs, target, err)
					return
				}
			}
			errc <- nil
		}()
		var answered, stale atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					eng := core.NewEngine(sys.cluster, sys.Coordinator(), v.v.SourceTree(), sys.cluster.Cost())
					rep, err := eng.ParBoX(ctx, q.program())
					switch {
					case errors.Is(err, eval.ErrUnresolved) || errors.Is(err, cluster.ErrNoFragment):
						stale.Add(1)
					case err != nil:
						t.Error(err)
						return
					case rep.Answer != want:
						t.Errorf("answer %v, want %v", rep.Answer, want)
						return
					default:
						answered.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		stop.Store(true)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if answered.Load() == 0 || pairs < 2 {
			t.Fatalf("%d answers beside %d split-merge pairs: no overlap", answered.Load(), pairs)
		}
		t.Logf("%d answers and %d stale-topology errors beside %d split-merge pairs", answered.Load(), stale.Load(), pairs)
		if rep, err := sys.Exec(ctx, q); err != nil || rep.Answer != want {
			t.Fatalf("after the merges: answer %v, %v; want %v", rep.Answer, err, want)
		}
	})
}

// TestAbortedBatchNeverAnswers: a writer loops on two-op batches on
// fragment 2 whose first op sets a text to "never" and whose second op is
// out of range, so every batch fails and is undone. No committed state
// has a "never" text, so no reader may ever see one: in Boolean, count and
// select mode, in process and over TCP.
func TestAbortedBatchNeverAnswers(t *testing.T) {
	const runs = 20000
	modes := []Mode{ModeBoolean, ModeCount, ModeSelect}
	for _, tcp := range []bool{false, true} {
		for _, mode := range modes {
			name := fmt.Sprintf("%v/in-memory", mode)
			if tcp {
				name = fmt.Sprintf("%v/tcp", mode)
			}
			t.Run(name, func(t *testing.T) {
				ctx := context.Background()
				sys := deployEditForest(t, tcp)
				v := materialize(t, sys, `//sec`)
				q := MustPrepare(`//*[text() = "never"]`)
				// The writer runs one batch beside each read: the reader
				// signals it just before every Exec.
				go1 := make(chan struct{}, 1)
				done := make(chan struct{})
				go func() {
					defer close(done)
					batch := []UpdateOp{
						{Op: OpSetText, Path: []int{0}, Text: "never"},
						{Op: OpInsert, Path: []int{99}, Label: "x"},
					}
					for range go1 {
						if _, err := v.Update(ctx, 2, batch); err == nil {
							t.Error("a batch with an out-of-range op committed")
							return
						}
					}
				}()
				seen := 0
				for i := 0; i < runs; i++ {
					select {
					case go1 <- struct{}{}:
					default:
					}
					res, err := sys.Exec(ctx, q, WithMode(mode))
					if err != nil {
						t.Fatal(err)
					}
					if res.Answer || res.Matched != 0 {
						seen++
					}
				}
				close(go1)
				<-done
				if seen != 0 {
					t.Errorf("%d of %d runs answered from an aborted batch", seen, runs)
				}
			})
		}
	}
}

// TestSubscribeExecBesideUpdates: a subscriber that reads the system while
// it handles each notification, beside a writer whose every update flips
// its answer. The update handler publishes Deltas after releasing the
// fragment's write lock; publishing under it deadlocks here once the
// delivery queues fill (the writer waits on the subscriber, which waits
// on the writer's lock).
func TestSubscribeExecBesideUpdates(t *testing.T) {
	ctx := context.Background()
	sys := deployEditForest(t, false)
	v := materialize(t, sys, `//sec`)
	q := MustPrepare(`//c[text() = "flip"]`)
	sub, err := sys.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			select {
			case <-sub.C():
				time.Sleep(100 * time.Microsecond)
				if _, err := sys.Exec(ctx, q); err != nil {
					t.Error(err)
				}
			case <-sub.Done():
				return
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2000; i++ {
			text := []string{"flip", "flop"}[i%2]
			if _, err := v.Update(ctx, 2, []UpdateOp{{Op: OpSetText, Path: []int{0}, Text: text}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		// The system cannot be closed in this state: fail with every
		// goroutine's stack instead of hanging in clean-up.
		panic("TestSubscribeExecBesideUpdates: the writer and the subscriber deadlocked")
	}
}
