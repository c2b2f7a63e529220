package views

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestFailedBatchIsNoOp: an update batch whose second op fails leaves the
// fragment exactly as it was — same version, byte-equal content, cached
// triplets still hits — and journals nothing, so a durable site reopened
// from its WAL shows the pre-batch fragment too. Op 1 (a valid setText)
// has already been applied in place when op 2 (a path out of range)
// fails; the handler must undo it.
func TestFailedBatchIsNoOp(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "in-memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			c, _, st := deploy(t)
			ctx := context.Background()
			site, _ := c.Site("S2") // stores fragment 3
			var fs *store.Store
			dir := t.TempDir()
			if durable {
				var err error
				if fs, err = store.Open(dir, store.Options{}); err != nil {
					t.Fatal(err)
				}
				defer fs.Discard()
				site.AttachStore(fs, 0)
				for _, id := range site.FragmentIDs() {
					fr, _ := site.Fragment(id)
					if err := fs.PutFragment(fr, site.FragmentVersion(id)); err != nil {
						t.Fatal(err)
					}
				}
			}
			prog := xpath.MustCompileString(`//stock[code = "GOOG" && sell = "376"]`)
			v, err := Materialize(ctx, c, "S0", st, prog)
			if err != nil {
				t.Fatal(err)
			}
			// One committed update, so fragment 3 has a maintained triplet
			// in the cache (and, durably, a recOps in the WAL).
			if _, err := v.Update(ctx, 3, []UpdateOp{{Op: OpInsert, Label: "note", Text: "kept"}}); err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(c, "S0", v.SourceTree(), c.Cost())
			eng.EnableTripletCache(true)
			if _, err := eng.ParBoX(ctx, prog); err != nil {
				t.Fatal(err)
			}
			fr, _ := site.Fragment(3)
			wantVersion := site.FragmentVersion(3)
			wantTree := xmltree.Encode(fr.Root)
			var walBefore int64
			if durable {
				walBefore = fs.Stats().WALBytes
			}

			_, err = v.Update(ctx, 3, []UpdateOp{
				{Op: OpSetText, Path: []int{0}, Text: "half-applied"},
				{Op: OpInsert, Path: []int{99}, Label: "x"},
			})
			if err == nil {
				t.Fatal("a batch with an out-of-range op must fail")
			}
			if got := site.FragmentVersion(3); got != wantVersion {
				t.Errorf("version after failed batch = %d, want %d", got, wantVersion)
			}
			if got := xmltree.Encode(fr.Root); !bytes.Equal(got, wantTree) {
				t.Errorf("tree after failed batch = %s, want the pre-batch tree", fr.Root)
			}
			rep, err := eng.ParBoX(ctx, prog)
			if err != nil {
				t.Fatal(err)
			}
			if rep.CacheMisses != 0 || rep.CacheHits != int64(st.Count()) {
				t.Errorf("after failed batch: %d cache hits, %d misses; want %d hits, 0 misses",
					rep.CacheHits, rep.CacheMisses, st.Count())
			}
			if !durable {
				return
			}
			if got := fs.Stats().WALBytes; got != walBefore {
				t.Errorf("failed batch appended %d WAL bytes, want 0", got-walBefore)
			}
			// Crash: reopen the directory without closing the live store.
			fs2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Discard()
			lf, lv, ok, err := fs2.LoadFragment(3)
			if err != nil || !ok {
				t.Fatalf("LoadFragment(3) after reopen: ok=%v err=%v", ok, err)
			}
			if lv != wantVersion {
				t.Errorf("reopened version = %d, want %d", lv, wantVersion)
			}
			if got := xmltree.Encode(lf.Root); !bytes.Equal(got, wantTree) {
				t.Errorf("reopened tree = %s, want the pre-batch tree", lf.Root)
			}
		})
	}
}

// TestFailedBatchIsNoOpForConcurrentFill: a reader that misses the triplet
// cache beside a batch that fails must neither answer from the
// half-applied tree nor cache what it evaluated there — the batch is
// undone at the same version, so such an entry would stay a hit for a
// tree that never committed. A writer loops on failing batches while a
// reader runs fresh probes (every one a miss, filled at the fragment's
// version); each answer, and each cached fill replayed afterwards, must
// be the oracle's.
func TestFailedBatchIsNoOpForConcurrentFill(t *testing.T) {
	c, forest, st := deploy(t)
	ctx := context.Background()
	site, _ := c.Site("S2") // stores fragment 3
	v, err := Materialize(ctx, c, "S0", st, xpath.MustCompileString(`//stock[code = "GOOG"]`))
	if err != nil {
		t.Fatal(err)
	}
	version := site.FragmentVersion(3)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if _, err := v.Update(ctx, 3, []UpdateOp{
				{Op: OpSetText, Path: []int{0}, Text: "half-applied"},
				{Op: OpInsert, Path: []int{99}, Label: "x"},
			}); err == nil {
				t.Error("a batch with an out-of-range op must fail")
				return
			}
		}
	}()
	eng := core.NewEngine(c, "S0", st, c.Cost())
	eng.EnableTripletCache(true)
	probes := make([]*xpath.Program, 1000)
	for i := range probes {
		probes[i] = xpath.MustCompileString(fmt.Sprintf(`//market[name = "half-applied"] || //absent%d`, i))
		rep, err := eng.ParBoX(ctx, probes[i])
		if err != nil {
			t.Fatal(err)
		}
		if rep.Answer {
			t.Errorf("probe %d answered from a half-applied tree", i)
		}
	}
	stop.Store(true)
	<-done
	if got := site.FragmentVersion(3); got != version {
		t.Fatalf("failed batches moved the version: %d, want %d", got, version)
	}
	for i, prog := range probes {
		rep, err := eng.ParBoX(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(t, forest, prog); rep.Answer != want || rep.CacheMisses != 0 {
			t.Fatalf("probe %d replayed: answer %v with %d misses, want %v from the cache (a half-applied fill was cached at version %d)",
				i, rep.Answer, rep.CacheMisses, want, version)
		}
	}
}
