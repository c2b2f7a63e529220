package parbox

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frag"
	"repro/internal/store"
)

// durableDoc builds the deterministic document the durability tests
// fragment; calling it twice yields structurally identical twins for the
// durable system and its never-restarted in-memory reference.
func durableDoc() *Node {
	return NewElement("catalog", "",
		NewElement("sec", "",
			NewElement("a", "x"),
			NewElement("b", "y", NewElement("bb", "deep"))),
		NewElement("sec", "",
			NewElement("c", "z", NewElement("d", "w"))),
		NewElement("sec", "",
			NewElement("e", "v"),
			NewElement("f", "")),
	)
}

// durableForest fragments a durableDoc into four fragments over three
// sites: root at S0, the three sections at S0/S1/S2.
func durableForest(t *testing.T) (*Forest, Assignment) {
	t.Helper()
	doc := durableDoc()
	forest := NewForest(doc)
	for _, sec := range doc.FindAll("sec") {
		if _, err := forest.Split(sec); err != nil {
			t.Fatal(err)
		}
	}
	return forest, Assignment{0: "S0", 1: "S0", 2: "S1", 3: "S2"}
}

var durableQueries = []string{
	`//a[text() = "x"] && //d`,
	`//bb[text() = "deep"]`,
	`//e && !(//zzz)`,
	`//sec`,
}

// captureVersions reads every site's fragment-version counters (live and
// dead) up to a generous id bound.
func captureVersions(s *System) map[SiteID]map[FragmentID]uint64 {
	out := make(map[SiteID]map[FragmentID]uint64)
	for _, id := range s.cluster.Sites() {
		site, _ := s.cluster.Site(id)
		vs := make(map[FragmentID]uint64)
		for fid := FragmentID(0); fid < 64; fid++ {
			if v := site.FragmentVersion(fid); v != 0 {
				vs[fid] = v
			}
		}
		out[id] = vs
	}
	return out
}

// assertVersionsMonotonic fails if any counter in next moved backwards
// relative to prev.
func assertVersionsMonotonic(t *testing.T, prev, next map[SiteID]map[FragmentID]uint64) {
	t.Helper()
	for sid, vs := range prev {
		for fid, v := range vs {
			if nv := next[sid][fid]; nv < v {
				t.Fatalf("site %s fragment %d version regressed %d -> %d", sid, fid, v, nv)
			}
		}
	}
}

// applyUpdates drives an identical topology-preserving maintenance stream
// (content updates on two fragments) through a system's view layer. Exec
// topology is fixed at Deploy, so the streams the differential tests share
// with a never-redeployed reference must not split or merge.
func applyUpdates(t *testing.T, ctx context.Context, s *System) *View {
	t.Helper()
	vRes, err := s.Exec(ctx, MustPrepare(durableQueries[0]), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	v := vRes.View
	// Content update on fragment 2 (S1): the query's //d lives there.
	if _, err := v.Update(ctx, 2, []UpdateOp{
		{Op: OpSetText, Path: []int{0, 0}, Text: "w2"},
		{Op: OpInsert, Path: []int{0}, Label: "g", Text: "new"},
	}); err != nil {
		t.Fatal(err)
	}
	// And one on fragment 1 (S0): deepen <bb>.
	if _, err := v.Update(ctx, 1, []UpdateOp{
		{Op: OpSetText, Path: []int{1, 0}, Text: "deeper"},
	}); err != nil {
		t.Fatal(err)
	}
	return v
}

// assertSameAnswers runs every algorithm (Boolean) and a count query on
// both systems and requires identical results.
func assertSameAnswers(t *testing.T, ctx context.Context, got, want *System) {
	t.Helper()
	for _, src := range durableQueries {
		q := MustPrepare(src)
		for _, algo := range Algorithms() {
			rg, err := got.Exec(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("restored %s %q: %v", algo, src, err)
			}
			rw, err := want.Exec(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("reference %s %q: %v", algo, src, err)
			}
			if rg.Answer != rw.Answer {
				t.Errorf("%s %q: restored=%v reference=%v", algo, src, rg.Answer, rw.Answer)
			}
		}
	}
	cg, err := got.Exec(ctx, MustPrepare(`//sec//*`), WithMode(ModeCount))
	if err != nil {
		t.Fatal(err)
	}
	cw, err := want.Exec(ctx, MustPrepare(`//sec//*`), WithMode(ModeCount))
	if err != nil {
		t.Fatal(err)
	}
	if cg.Counting.Count != cw.Counting.Count {
		t.Errorf("count: restored=%d reference=%d", cg.Counting.Count, cw.Counting.Count)
	}
}

// TestCrashRecoveryDifferential is the acceptance gate: a durable system
// and an in-memory twin receive the same maintenance stream; the durable
// one crashes (dropped without Close) and is restored from WAL+snapshot.
// All algorithm answers must match the never-restarted reference, the
// recovered fragment versions must be identical to the pre-crash ones,
// and a repeated query must answer entirely from the warmed triplet cache
// with zero bottomUp steps.
func TestCrashRecoveryDifferential(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	forest, assign := durableForest(t)
	dur, err := Deploy(forest, assign, WithDurability(dir), WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	refForest, refAssign := durableForest(t)
	ref, err := Deploy(refForest, refAssign, WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}

	applyUpdates(t, ctx, dur)
	applyUpdates(t, ctx, ref)
	assertSameAnswers(t, ctx, dur, ref)

	// One serving round after the maintenance stream fills — and journals —
	// every site's triplet cache at the final fragment versions.
	warmQ := MustPrepare(durableQueries[0])
	if _, err := dur.Exec(ctx, warmQ); err != nil {
		t.Fatal(err)
	}
	preCrash := captureVersions(dur)

	// Crash: the durable system is abandoned mid-flight, never Closed.
	dur = nil

	rest, err := Restore(dir, WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()

	restored := captureVersions(rest)
	for sid, vs := range preCrash {
		for fid, v := range vs {
			if rv := restored[sid][fid]; rv != v {
				t.Errorf("site %s fragment %d: restored version %d, want %d", sid, fid, rv, v)
			}
		}
	}
	assertSameAnswers(t, ctx, rest, ref)

	// The warmed cache must survive the restart: the same query answers
	// with every fragment a cache hit and zero bottomUp computation.
	res, err := rest.Exec(ctx, warmQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 0 || res.CacheHits == 0 {
		t.Errorf("post-restart warm query: hits=%d misses=%d, want all hits", res.CacheHits, res.CacheMisses)
	}
	if bottomUp := res.TotalSteps - res.Boolean.SolveWork; bottomUp != 0 {
		t.Errorf("post-restart warm query ran %d bottomUp steps, want 0", bottomUp)
	}
}

// TestVersionMonotonicityAndStaleCacheRejection covers the maintenance
// satellites: versions only ever move forward — across Split and Merge and
// across a crash-restart — and a triplet journaled before a later mutation
// is never served after recovery (the stale entry misses instead).
func TestVersionMonotonicityAndStaleCacheRejection(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	forest, assign := durableForest(t)
	dur, err := Deploy(forest, assign, WithDurability(dir), WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	refForest, refAssign := durableForest(t)
	ref, err := Deploy(refForest, refAssign)
	if err != nil {
		t.Fatal(err)
	}

	q := MustPrepare(durableQueries[1]) // //bb[text()="deep"]
	if _, err := dur.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	snap0 := captureVersions(dur)

	vRes, err := dur.Exec(ctx, MustPrepare(durableQueries[0]), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	v := vRes.View
	newID, _, err := v.Split(ctx, 1, []int{1}, "S2")
	if err != nil {
		t.Fatal(err)
	}
	snap1 := captureVersions(dur)
	assertVersionsMonotonic(t, snap0, snap1)
	if _, err := v.Merge(ctx, 1, newID); err != nil {
		t.Fatal(err)
	}
	snap2 := captureVersions(dur)
	assertVersionsMonotonic(t, snap1, snap2)
	// The merged-away fragment's counter survives at S2 even though the
	// fragment is gone — its ids must never be reusable by a cache.
	if snap2["S2"][newID] == 0 {
		t.Fatalf("merged fragment %d lost its version counter: %v", newID, snap2["S2"])
	}

	// Mutate fragment 1 AFTER its triplet was journaled, then crash
	// without re-executing: recovery sees a cached entry at the old
	// version and must reject it rather than serve the dead answer.
	refVRes, err := ref.Exec(ctx, MustPrepare(durableQueries[0]), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	refV := refVRes.View
	ops := []UpdateOp{{Op: OpDelete, Path: []int{1, 0}}} // delete <bb>
	if _, err := v.Update(ctx, 1, ops); err != nil {
		t.Fatal(err)
	}
	refNewID, _, err := refV.Split(ctx, 1, []int{1}, "S2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refV.Merge(ctx, 1, refNewID); err != nil {
		t.Fatal(err)
	}
	if _, err := refV.Update(ctx, 1, ops); err != nil {
		t.Fatal(err)
	}
	preCrash := captureVersions(dur)
	dur = nil // crash

	rest, err := Restore(dir, WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	assertVersionsMonotonic(t, preCrash, captureVersions(rest))

	res, err := rest.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != refRes.Answer {
		t.Errorf("post-restart answer %v, reference %v", res.Answer, refRes.Answer)
	}
	if res.Answer {
		t.Error("deleted <bb> still matches: a dead cache entry was served")
	}
	if res.CacheMisses == 0 {
		t.Error("mutated fragment produced no cache miss; its stale entry must not be restored")
	}

	// Versions keep climbing after the restart, too.
	postVRes, err := rest.Exec(ctx, MustPrepare(durableQueries[0]), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	postV := postVRes.View
	if _, err := postV.Update(ctx, 1, []UpdateOp{{Op: OpSetText, Path: []int{0}, Text: "zz"}}); err != nil {
		t.Fatal(err)
	}
	assertVersionsMonotonic(t, captureVersions(rest), captureVersions(rest))
}

// TestGracefulCloseAndRestore exercises the snapshot-only restart: Close
// checkpoints, Restore replays no WAL, and Deploy refuses a dir that
// already holds state.
func TestGracefulCloseAndRestore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	forest, assign := durableForest(t)
	dur, err := Deploy(forest, assign, WithDurability(dir), WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	applyUpdates(t, ctx, dur)
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	refForest, refAssign := durableForest(t)
	ref, err := Deploy(refForest, refAssign)
	if err != nil {
		t.Fatal(err)
	}
	applyUpdates(t, ctx, ref)

	if _, err := Deploy(forest, assign, WithDurability(dir)); err == nil ||
		!strings.Contains(err.Error(), "use Restore") {
		t.Fatalf("Deploy on a used data dir: err = %v, want 'use Restore'", err)
	}

	rest, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	assertSameAnswers(t, ctx, rest, ref)
}

// TestResidentFragmentBound restores with a one-fragment resident table:
// every query lazily loads what it needs, answers stay correct, and the
// table never exceeds its bound between operations.
func TestResidentFragmentBound(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	forest, assign := durableForest(t)
	dur, err := Deploy(forest, assign, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	refForest, refAssign := durableForest(t)
	ref, err := Deploy(refForest, refAssign)
	if err != nil {
		t.Fatal(err)
	}

	rest, err := Restore(dir, WithResidentFragments(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	for round := 0; round < 2; round++ {
		assertSameAnswers(t, ctx, rest, ref)
	}
	for _, sid := range rest.cluster.Sites() {
		site, _ := rest.cluster.Site(sid)
		if n := site.ResidentFragments(); n > 1 {
			t.Errorf("site %s holds %d resident fragments, bound is 1", sid, n)
		}
	}
}

// TestRestoreEmptyDir documents the failure mode, and that foreign
// subdirectories (anything without store files) are skipped rather than
// registered as bogus sites — or worse, written into.
func TestRestoreEmptyDir(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "lost+found")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir); err == nil {
		t.Fatal("Restore on a dir with no site state succeeded")
	}
	entries, err := os.ReadDir(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Restore wrote into a foreign directory: %v", entries)
	}
}

// TestDeployDurableFailureLeavesDirClean forces attachStores to fail on
// the second site and checks the first site's half-seeded store was
// removed, so the retried Deploy succeeds.
func TestDeployDurableFailureLeavesDirClean(t *testing.T) {
	dir := t.TempDir()
	doc := NewElement("r", "", NewElement("a", ""))
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	// "S/1" cannot name a data subdirectory; S0 is seeded first (sites
	// are walked in sorted order) and must be rolled back.
	if _, err := Deploy(forest, Assignment{0: "S0", 1: "S/1"}, WithDurability(dir)); err == nil {
		t.Fatal("Deploy with an unusable site name succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed Deploy left %v behind", entries)
	}
	doc2 := NewElement("r", "", NewElement("a", ""))
	forest2 := NewForest(doc2)
	if _, err := forest2.Split(doc2.Children[0]); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest2, Assignment{0: "S0", 1: "S1"}, WithDurability(dir))
	if err != nil {
		t.Fatalf("retry on the cleaned dir failed: %v", err)
	}
	sys.Close()
}

// TestRestoreDropsMergeCrashDuplicate hand-builds the torn state a crash
// inside a same-site merge leaves behind — the merged-into fragment's log
// already holds the absorbed content, the child's deletion never made it —
// and checks Restore repairs it by dropping the unreferenced duplicate.
func TestRestoreDropsMergeCrashDuplicate(t *testing.T) {
	dir := t.TempDir()
	// Root fragment: merged state, <a> absorbed, no virtual node left.
	st0, err := store.Open(filepath.Join(dir, "S0"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := NewElement("r", "", NewElement("a", "x"))
	if err := st0.PutFragment(&frag.Fragment{ID: 0, Parent: frag.NoParent, Root: root}, 2); err != nil {
		t.Fatal(err)
	}
	if err := st0.Close(); err != nil {
		t.Fatal(err)
	}
	// Child site: fragment 1 still live — the un-deleted duplicate.
	st1, err := store.Open(filepath.Join(dir, "S1"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.PutFragment(&frag.Fragment{ID: 1, Parent: 0, Root: NewElement("a", "x")}, 1); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	rest, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore did not repair the merge-crash duplicate: %v", err)
	}
	defer rest.Close()
	if got := rest.SourceTree().Count(); got != 1 {
		t.Fatalf("restored %d fragments, want 1 (duplicate dropped)", got)
	}
	res, err := rest.Exec(context.Background(), MustPrepare(`//a[text() = "x"]`))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer {
		t.Error("absorbed content lost")
	}
}

// TestIncompleteSeedWipedAndReseeded covers the seed-completion marker: a
// store holding state but no snapshot is a first start that crashed while
// seeding — Deploy wipes and reseeds it, Restore refuses it.
func TestIncompleteSeedWipedAndReseeded(t *testing.T) {
	dir := t.TempDir()
	torn, err := store.Open(filepath.Join(dir, "S0"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := torn.PutFragment(&frag.Fragment{ID: 0, Parent: frag.NoParent,
		Root: NewElement("stale", "")}, 1); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, so no checkpoint — the seed never completed.

	if _, err := Restore(dir); err == nil || !strings.Contains(err.Error(), "never fully seeded") {
		t.Fatalf("Restore on a torn seed: err = %v, want 'never fully seeded'", err)
	}

	doc := NewElement("r", "", NewElement("a", ""))
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1"}, WithDurability(dir))
	if err != nil {
		t.Fatalf("Deploy did not reseed over the torn seed: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	rest, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	res, err := rest.Exec(context.Background(), MustPrepare(`//stale`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer {
		t.Error("stale torn-seed content survived the reseed")
	}
}

// TestTopologyChangeRecovery crashes after maintenance that reshapes the
// forest — a cross-site split (whose adoption re-parents the subtree at a
// different site) and a merge that dissolves a fragment — and restores.
// Restore reconstructs the source tree from the recovered fragments (Exec
// against the pre-crash System would be stale: its topology is fixed at
// Deploy), so every algorithm must agree with centralized evaluation of
// the reassembled recovered document.
func TestTopologyChangeRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	forest, assign := durableForest(t)
	dur, err := Deploy(forest, assign, WithDurability(dir), WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	vRes, err := dur.Exec(ctx, MustPrepare(durableQueries[0]), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	v := vRes.View
	// Split <b> (with its <bb> child) out of fragment 1 over to S2, edit
	// it at its new home, then dissolve fragment 3 into the root.
	newID, _, err := v.Split(ctx, 1, []int{1}, "S2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Update(ctx, newID, []UpdateOp{
		{Op: OpSetText, Path: []int{0}, Text: "deeper"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Merge(ctx, 0, 3); err != nil {
		t.Fatal(err)
	}
	dur = nil // crash

	rest, err := Restore(dir, WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	if got := rest.SourceTree().Count(); got != 4 {
		t.Fatalf("restored source tree has %d fragments, want 4 (split added one, merge removed one)", got)
	}
	whole, err := rest.forest.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	queries := append([]string{`//bb[text() = "deeper"]`, `//f`}, durableQueries...)
	for _, src := range queries {
		q := MustPrepare(src)
		want, err := EvaluateLocal(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algorithms() {
			res, err := rest.Exec(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%s %q: %v", algo, src, err)
			}
			if res.Answer != want {
				t.Errorf("%s %q = %v, centralized reference says %v", algo, src, res.Answer, want)
			}
		}
	}
}

// TestRestoreTrustsSplitMovedParents pins the serving-time-split /
// durable-parent contract: when a split carves out a subtree containing
// other fragments' virtual nodes, the moved sub-fragments are
// re-journaled under their new parent at split time — locally by the
// owning site, remotely through views.setParent — so a crash-Restore
// finds every persisted Parent exact and performs no structural repair
// (the repair path warns; this test requires silence).
func TestRestoreTrustsSplitMovedParents(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	doc := NewElement("catalog", "",
		NewElement("wrap", "",
			NewElement("seca", "", NewElement("a", "x")),
			NewElement("secb", "", NewElement("b", "y")),
			NewElement("k", "v")),
		NewElement("tail", "t"))
	forest := NewForest(doc)
	secA, err := forest.Split(doc.FindAll("seca")[0])
	if err != nil {
		t.Fatal(err)
	}
	secB, err := forest.Split(doc.FindAll("secb")[0])
	if err != nil {
		t.Fatal(err)
	}
	// secA shares the split owner's site (local re-journal path); secB
	// lives elsewhere (remote views.setParent path).
	dur, err := Deploy(forest, Assignment{0: "S0", secA: "S0", secB: "S1"}, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	vRes, err := dur.Exec(ctx, MustPrepare(`//a`), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	v := vRes.View
	// Split fragment 0 at <wrap>: the carved subtree carries both virtual
	// nodes, so secA and secB now nest under the new fragment.
	wrapID, _, err := v.Split(ctx, 0, []int{0}, "S1")
	if err != nil {
		t.Fatal(err)
	}
	// The view's (cloned) source tree re-parents immediately; the
	// system's own tree is rebuilt from the persisted parents on Restore.
	for _, id := range []FragmentID{secA, secB} {
		e, ok := v.v.SourceTree().Entry(id)
		if !ok || e.Parent != wrapID {
			t.Fatalf("view source tree: fragment %d parent = %+v, want %d", id, e, wrapID)
		}
	}
	dur = nil // crash: recovery replays the WAL, snapshots never taken

	warns := 0
	oldWarn := restoreWarnf
	restoreWarnf = func(format string, args ...any) { warns++ }
	defer func() { restoreWarnf = oldWarn }()

	rest, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	if warns != 0 {
		t.Fatalf("restore repaired %d persisted parents; split should have journaled them exactly", warns)
	}
	for _, id := range []FragmentID{secA, secB} {
		e, ok := rest.SourceTree().Entry(id)
		if !ok || e.Parent != wrapID {
			t.Fatalf("restored source tree: fragment %d parent = %+v, want %d", id, e, wrapID)
		}
	}
	whole, err := rest.forest.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{`//a[text() = "x"]`, `//b && //k`, `//tail`} {
		q := MustPrepare(src)
		want, err := EvaluateLocal(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rest.Exec(ctx, q)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if res.Answer != want {
			t.Errorf("%q = %v, centralized reference says %v", src, res.Answer, want)
		}
	}
}

// TestFailedBatchIsNoOpAcrossRestore: an update batch that fails on its
// second op leaves a durable deployment as it was. Its first op, a valid
// setText, is undone, so the fragment keeps its version and content in
// memory, and nothing reaches the WAL: after a crash, Restore brings back
// the pre-batch fragment at the pre-batch version.
func TestFailedBatchIsNoOpAcrossRestore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	forest, assign := durableForest(t)
	dur, err := Deploy(forest, assign, WithDurability(dir), WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	v := applyUpdates(t, ctx, dur)
	wantVersions := captureVersions(dur)
	fragment := func(s *System) string {
		site, _ := s.cluster.Site("S1")
		fr, ok := site.Fragment(2)
		if !ok {
			t.Fatal("S1 lost fragment 2")
		}
		return fr.Root.String()
	}
	want := fragment(dur)
	if _, err := v.Update(ctx, 2, []UpdateOp{
		{Op: OpSetText, Path: []int{0, 0}, Text: "half-applied"},
		{Op: OpInsert, Path: []int{9}, Label: "x"},
	}); err == nil {
		t.Fatal("a batch with an out-of-range op must fail")
	}
	if got := fragment(dur); got != want {
		t.Errorf("fragment 2 after the failed batch = %s, want %s", got, want)
	}
	if got := captureVersions(dur); !reflect.DeepEqual(got, wantVersions) {
		t.Errorf("versions after the failed batch = %v, want %v", got, wantVersions)
	}

	// Crash: abandon the deployment without Close.
	rest, err := Restore(dir, WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	if got := fragment(rest); got != want {
		t.Errorf("restored fragment 2 = %s, want %s", got, want)
	}
	if got := captureVersions(rest); !reflect.DeepEqual(got, wantVersions) {
		t.Errorf("restored versions = %v, want %v", got, wantVersions)
	}
}
