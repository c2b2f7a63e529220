package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frag"
	"repro/internal/xmltree"
)

// randomFragment is a random tree, sometimes with a virtual leaf, so that
// deletes of subtrees holding one are refused by the generator.
func randomFragment(r *rand.Rand, id, parent xmltree.FragmentID, nodes int) *frag.Fragment {
	root := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: nodes})
	if r.Intn(2) == 0 {
		var all []*xmltree.Node
		root.Walk(func(n *xmltree.Node) { all = append(all, n) })
		all[r.Intn(len(all))].AppendChild(xmltree.NewVirtual(id + 100))
	}
	return &frag.Fragment{ID: id, Parent: parent, Root: root}
}

// randomBatch draws n ops that apply to root in order, applying each as
// it goes: root is the mirror, holding the state after the batch.
func randomBatch(t *testing.T, r *rand.Rand, root *xmltree.Node, n int) []xmltree.UpdateOp {
	t.Helper()
	var ops []xmltree.UpdateOp
	for len(ops) < n {
		var all []*xmltree.Node
		root.Walk(func(n *xmltree.Node) { all = append(all, n) })
		target := all[r.Intn(len(all))]
		op := xmltree.UpdateOp{Path: xmltree.PathOf(target)}
		switch r.Intn(3) {
		case 0:
			if target.Virtual {
				continue
			}
			op.Op, op.Label, op.Text = xmltree.OpInsert, fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("t%d", r.Intn(100))
		case 1:
			if target.Parent == nil || len(target.VirtualNodes()) > 0 {
				continue
			}
			op.Op = xmltree.OpDelete
		default:
			if target.Virtual {
				continue
			}
			op.Op, op.Text = xmltree.OpSetText, fmt.Sprintf("s%d", r.Intn(1000))
		}
		if err := op.Apply(root); err != nil {
			t.Fatalf("generated op %+v does not apply: %v", op, err)
		}
		ops = append(ops, op)
	}
	return ops
}

// checkMirror asserts that every mirror fragment loads Encode-byte-equal
// at its exact version.
func checkMirror(t *testing.T, s *Store, mirror map[xmltree.FragmentID]*frag.Fragment, versions map[xmltree.FragmentID]uint64) {
	t.Helper()
	for id, want := range mirror {
		got, v, ok, err := s.LoadFragment(id)
		if err != nil || !ok {
			t.Fatalf("LoadFragment(%d): ok=%v err=%v", id, ok, err)
		}
		if v != versions[id] {
			t.Errorf("fragment %d version = %d, want %d", id, v, versions[id])
		}
		if got.Parent != want.Parent {
			t.Errorf("fragment %d parent = %d, want %d", id, got.Parent, want.Parent)
		}
		if !bytes.Equal(xmltree.Encode(got.Root), xmltree.Encode(want.Root)) {
			t.Errorf("fragment %d = %s, want %s", id, got.Root, want.Root)
		}
	}
	if got := len(s.FragmentIDs()); got != len(mirror) {
		t.Errorf("store holds %d fragments, want %d", got, len(mirror))
	}
}

// TestOpsReplayMatchesTree: random trees take random op batches through
// PutOps (small segments, so batches straddle rotations; small trees, so
// fold-on-write fires); the loaded fragments are Encode-byte-equal to the
// in-memory trees live, after a crash and after a checkpointed close.
func TestOpsReplayMatchesTree(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{SegmentBytes: 512, CheckpointBytes: -1})
		mirror := make(map[xmltree.FragmentID]*frag.Fragment)
		versions := make(map[xmltree.FragmentID]uint64)
		for id := xmltree.FragmentID(0); id < 3; id++ {
			f := randomFragment(r, id, 0, 1+r.Intn(40))
			mirror[id], versions[id] = f, 1
			mustPut(t, s, f, 1)
		}
		folds := 0
		for b := 0; b < 60; b++ {
			id := xmltree.FragmentID(r.Intn(3))
			f := mirror[id]
			ops := randomBatch(t, r, f.Root, 1+r.Intn(4))
			versions[id]++
			if err := s.PutOps(f, versions[id], ops); err != nil {
				t.Fatal(err)
			}
			if err := s.PutTriplets(id, versions[id], []frag.Triplet{{FP: uint64(b % 4), Enc: []byte{byte(b), 1}}}); err != nil {
				t.Fatal(err)
			}
			if len(s.frags[id].ops) == 0 {
				folds++
			}
		}
		if seed == 0 && folds == 0 {
			t.Error("no update was folded on write")
		}
		checkMirror(t, s, mirror, versions)
		trips, err := s.Triplets()
		if err != nil {
			t.Fatal(err)
		}

		crashed := mustOpen(t, dir, Options{})
		checkMirror(t, crashed, mirror, versions)
		if got, err := crashed.Triplets(); err != nil || !reflect.DeepEqual(got, trips) {
			t.Errorf("seed %d: triplets after crash = %v (%v), want %v", seed, got, err, trips)
		}
		crashed.Discard()

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		reopened := mustOpen(t, dir, Options{})
		checkMirror(t, reopened, mirror, versions)
		reopened.Close()
	}
}

// TestOpsCheckpointMatchesPutFragment: a checkpoint of a fragment with
// updates pending writes the snapshot, byte for byte, that a store given
// PutFragment of the final tree at the same version writes.
func TestOpsCheckpointMatchesPutFragment(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := randomFragment(r, 0, frag.NoParent, 300)
	dirA, dirB := t.TempDir(), t.TempDir()
	a := mustOpen(t, dirA, Options{CheckpointBytes: -1})
	mustPut(t, a, f, 1)
	v := uint64(1)
	for i := 0; i < 12; i++ {
		v++
		if err := a.PutOps(f, v, randomBatch(t, r, f.Root, 1+r.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.frags[0].ops) == 0 {
		t.Fatal("fixture folded its updates on write; the checkpoint has nothing to fold")
	}
	b := mustOpen(t, dirB, Options{CheckpointBytes: -1})
	mustPut(t, b, f, v)
	for _, s := range []*Store{a, b} {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	snapA, err := os.ReadFile(a.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := os.ReadFile(b.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Errorf("snapshot after folding updates (%d B) differs from PutFragment's (%d B)", len(snapA), len(snapB))
	}
	a.Close()
	b.Close()
}

// TestCrashPrefixReplaysLastCommittedUpdate cuts the WAL after every
// record, and inside every record (a torn write): each prefix reopens to
// the state after the last update whose first record (recOps, or the
// recPut a fold writes) is intact, at that update's exact version. The
// triplet records an update appends behind it are a cache: losing them
// loses no committed state.
func TestCrashPrefixReplaysLastCommittedUpdate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CheckpointBytes: -1})
	f := randomFragment(r, 0, frag.NoParent, 8)
	mustPut(t, s, f, 1)
	type state struct {
		tree    []byte
		version uint64
	}
	states := []state{{xmltree.Encode(f.Root), 1}}
	for u := 0; u < 30; u++ {
		v := uint64(u + 2)
		if err := s.PutOps(f, v, randomBatch(t, r, f.Root, 1+r.Intn(3))); err != nil {
			t.Fatal(err)
		}
		if err := s.PutTriplets(0, v, []frag.Triplet{{FP: 1, Enc: []byte{byte(u)}}, {FP: 2, Enc: []byte{byte(u), 9}}}); err != nil {
			t.Fatal(err)
		}
		states = append(states, state{xmltree.Encode(f.Root), v})
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	s.Discard()

	// commits[k] is the offset where the record committing states[k] ends.
	var commits, ends []int
	puts := 0
	for off := magicLen; off < len(seg); {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		end := off + recordHeaderLen + n
		switch kind := seg[off+recordHeaderLen]; kind {
		case recPut, recOps:
			commits = append(commits, end)
			if kind == recPut {
				puts++
			}
		}
		ends = append(ends, end)
		off = end
	}
	if len(commits) != len(states) {
		t.Fatalf("WAL holds %d commit records, want %d", len(commits), len(states))
	}
	if puts < 2 {
		t.Fatal("no update was folded on write; the prefixes never end in a fold")
	}
	cuts := []int{magicLen}
	for _, e := range ends {
		cuts = append(cuts, e-3, e) // torn inside the record, then whole
	}
	for _, cut := range cuts {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, segName(1)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := Open(d, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		k := -1
		for k+1 < len(commits) && commits[k+1] <= cut {
			k++
		}
		got, v, ok, err := o.LoadFragment(0)
		switch {
		case err != nil:
			t.Errorf("cut at %d: %v", cut, err)
		case k < 0:
			if ok {
				t.Errorf("cut at %d: fragment present before its first record", cut)
			}
		case !ok:
			t.Errorf("cut at %d: fragment missing, want state %d", cut, k)
		case v != states[k].version || !bytes.Equal(xmltree.Encode(got.Root), states[k].tree):
			t.Errorf("cut at %d: version %d tree %s, want version %d (state %d)", cut, v, got.Root, states[k].version, k)
		}
		o.Discard()
	}
}

// TestCheckpointDuringUpdatesRebases: updates appended while a checkpoint
// writes its snapshot survive it, live and across a crash and a clean
// reopen. A fragment whose base the checkpoint copied rebases onto the
// snapshot with only the new updates pending; a fragment re-put, folded on
// write, deleted or added meanwhile keeps what it got after the rotation.
func TestCheckpointDuringUpdatesRebases(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CheckpointBytes: -1})
	mirror := make(map[xmltree.FragmentID]*frag.Fragment)
	versions := make(map[xmltree.FragmentID]uint64)
	update := func(id xmltree.FragmentID, n int) {
		f := mirror[id]
		versions[id]++
		if err := s.PutOps(f, versions[id], randomBatch(t, r, f.Root, n)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutTriplets(id, versions[id], []frag.Triplet{{FP: 5, Enc: []byte{byte(versions[id])}}}); err != nil {
			t.Fatal(err)
		}
	}
	for id := xmltree.FragmentID(0); id < 5; id++ {
		mirror[id], versions[id] = randomFragment(r, id, 0, 60), 1
		mustPut(t, s, mirror[id], 1)
		update(id, 2) // pending before the checkpoint
	}
	mirror[1].Root = xmltree.NewElement("tiny", "") // fragment 1 folds at once
	versions[1]++
	mustPut(t, s, mirror[1], versions[1])
	update(1, 1)

	ran := false
	s.afterCheckpointPhase1 = func() {
		if ran {
			return
		}
		ran = true
		update(0, 3) // rebased: base in the snapshot, these pending
		update(0, 1)
		for i := 0; i < 3; i++ {
			update(1, 4) // past the tiny base's size: folds on write
		}
		versions[2]++ // re-put in full
		mustPut(t, s, mirror[2], versions[2])
		update(2, 1)
		versions[3]++
		if err := s.DeleteFragment(3, versions[3]); err != nil {
			t.Fatal(err)
		}
		delete(mirror, 3)
		mirror[9], versions[9] = randomFragment(r, 9, 0, 10), 1
		mustPut(t, s, mirror[9], 1)
		update(9, 2)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.afterCheckpointPhase1 = nil
	if !ran {
		t.Fatal("the checkpoint hook did not run")
	}
	if n := len(s.frags[0].ops); n != 2 {
		t.Errorf("fragment 0 has %d updates pending on the snapshot, want the 2 appended during the checkpoint", n)
	}
	if n := len(s.frags[4].ops); n != 0 {
		t.Errorf("fragment 4 has %d updates pending, want 0: the snapshot folded them", n)
	}
	checkMirror(t, s, mirror, versions)
	update(0, 1)
	update(4, 2)

	crashed := mustOpen(t, dir, Options{})
	checkMirror(t, crashed, mirror, versions)
	crashed.Discard()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir, Options{})
	defer reopened.Close()
	checkMirror(t, reopened, mirror, versions)
}

// TestOpsThatDoNotApplyAreCorrupt: a CRC-valid update record that does not
// fit the state before it is ErrCorrupt — at Open when it names a
// fragment with no content, at load and at checkpoint when its ops do not
// decode or apply — never a panic and never a silently skipped update.
func TestOpsThatDoNotApplyAreCorrupt(t *testing.T) {
	tree := xmltree.Encode(xmltree.NewElement("a", "", xmltree.NewElement("b", "")))
	put, _ := putBody(0, frag.NoParent, 1, tree)
	badPath, _ := opsBody(0, 2, xmltree.AppendOps(nil, []xmltree.UpdateOp{{Op: xmltree.OpDelete, Path: []int{5}}}))
	rootDelete, _ := opsBody(0, 2, xmltree.AppendOps(nil, []xmltree.UpdateOp{{Op: xmltree.OpDelete}}))
	garbled, _ := opsBody(0, 2, []byte{3, 2, 1})
	orphan, _ := opsBody(7, 2, xmltree.AppendOps(nil, nil))
	open := func(bodies ...[]byte) (*Store, error) {
		dir := t.TempDir()
		seg := []byte(walMagic)
		for _, b := range bodies {
			seg = frameRecord(seg, b)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		return Open(dir, Options{})
	}
	for name, ops := range map[string][]byte{"bad path": badPath, "root delete": rootDelete, "garbled": garbled} {
		s, err := open(put, ops)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if _, _, _, err := s.LoadFragment(0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: LoadFragment error = %v, want ErrCorrupt", name, err)
		}
		if err := s.Checkpoint(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Checkpoint error = %v, want ErrCorrupt", name, err)
		}
		s.Discard()
	}
	if _, err := open(put, orphan); !errors.Is(err, ErrCorrupt) {
		t.Errorf("update of a fragment with no content: Open error = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointDuringUpdatesConcurrent runs checkpoints back to back in
// one goroutine while another commits updates (some folding on write):
// every checkpoint reads pending op lists while appends extend them, so
// under -race this checks that they share nothing unsynchronized, and
// the end state must still load, crash-reopen and reopen as the mirror.
func TestCheckpointDuringUpdatesConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CheckpointBytes: -1})
	mirror := make(map[xmltree.FragmentID]*frag.Fragment)
	versions := make(map[xmltree.FragmentID]uint64)
	for id := xmltree.FragmentID(0); id < 4; id++ {
		mirror[id], versions[id] = randomFragment(r, id, 0, 5+r.Intn(30)), 1
		mustPut(t, s, mirror[id], 1)
	}
	stop := make(chan struct{})
	cpErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				cpErr <- nil
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				cpErr <- err
				return
			}
		}
	}()
	for u := 0; u < 400; u++ {
		id := xmltree.FragmentID(r.Intn(4))
		f := mirror[id]
		versions[id]++
		if err := s.PutOps(f, versions[id], randomBatch(t, r, f.Root, 1+r.Intn(3))); err != nil {
			t.Fatal(err)
		}
		if err := s.PutTriplets(id, versions[id], []frag.Triplet{{FP: 1, Enc: []byte{byte(u)}}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-cpErr; err != nil {
		t.Fatal(err)
	}
	checkMirror(t, s, mirror, versions)
	crashed := mustOpen(t, dir, Options{})
	checkMirror(t, crashed, mirror, versions)
	crashed.Discard()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir, Options{})
	defer reopened.Close()
	checkMirror(t, reopened, mirror, versions)
}
