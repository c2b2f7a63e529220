package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/frag"
	"repro/internal/xmltree"
)

func testFragment(id, parent xmltree.FragmentID, label string) *frag.Fragment {
	root := xmltree.NewElement(label, "t",
		xmltree.NewElement("a", "x"),
		xmltree.NewElement("b", "", xmltree.NewVirtual(id+100)),
	)
	return &frag.Fragment{ID: id, Parent: parent, Root: root}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, f *frag.Fragment, v uint64) {
	t.Helper()
	if err := s.PutFragment(f, v); err != nil {
		t.Fatalf("PutFragment(%d): %v", f.ID, err)
	}
}

func checkFragment(t *testing.T, s *Store, want *frag.Fragment, wantV uint64) {
	t.Helper()
	got, v, ok, err := s.LoadFragment(want.ID)
	if err != nil || !ok {
		t.Fatalf("LoadFragment(%d) = ok=%v err=%v", want.ID, ok, err)
	}
	if v != wantV {
		t.Errorf("fragment %d version = %d, want %d", want.ID, v, wantV)
	}
	if got.Parent != want.Parent {
		t.Errorf("fragment %d parent = %d, want %d", want.ID, got.Parent, want.Parent)
	}
	if !got.Root.Equal(want.Root) {
		t.Errorf("fragment %d tree = %s, want %s", want.ID, got.Root, want.Root)
	}
}

func TestPutLoadAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	f0 := testFragment(0, frag.NoParent, "root")
	f1 := testFragment(1, 0, "sub")
	mustPut(t, s, f0, 1)
	mustPut(t, s, f1, 1)
	// Overwrite f1 with mutated content at a later version.
	f1.Root.AppendChild(xmltree.NewElement("c", "new"))
	mustPut(t, s, f1, 7)
	checkFragment(t, s, f0, 1)
	checkFragment(t, s, f1, 7)

	// Crash (no Close) and recover from the WAL alone.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	checkFragment(t, s2, f0, 1)
	checkFragment(t, s2, f1, 7)
	if got := s2.FragmentIDs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("FragmentIDs = %v, want [0 1]", got)
	}
}

func TestDeleteKeepsVersionCounter(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	f := testFragment(3, 0, "gone")
	mustPut(t, s, f, 4)
	if err := s.DeleteFragment(3, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.LoadFragment(3); ok {
		t.Fatal("deleted fragment still loads")
	}

	for _, reopen := range []bool{false, true} {
		st := s
		if reopen {
			st = mustOpen(t, dir, Options{})
			defer st.Close()
		}
		if v := st.Versions()[3]; v != 5 {
			t.Errorf("reopen=%v: dead version = %d, want 5", reopen, v)
		}
	}

	// Checkpoint persists the dead counter via the snapshot too.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	if v := s3.Versions()[3]; v != 5 {
		t.Errorf("post-checkpoint dead version = %d, want 5", v)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	frs := make([]*frag.Fragment, 5)
	for i := range frs {
		frs[i] = testFragment(xmltree.FragmentID(i), frag.NoParent, "f")
		mustPut(t, s, frs[i], uint64(i)+1)
	}
	if err := s.PutTriplets(0, 1, []frag.Triplet{{FP: 99, Enc: []byte{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WALBytes != 0 || st.Segments != 1 || st.SnapshotSeq == 0 {
		t.Fatalf("post-checkpoint stats = %+v", st)
	}
	// Only the fresh segment and the snapshot remain on disk.
	var wals, snaps int
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".wal"):
			wals++
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		}
	}
	if wals != 1 || snaps != 1 {
		t.Fatalf("on disk: %d wals, %d snaps; want 1 and 1", wals, snaps)
	}
	// Everything still loads, before and after a reopen.
	for i, fr := range frs {
		checkFragment(t, s, fr, uint64(i)+1)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	for i, fr := range frs {
		checkFragment(t, s2, fr, uint64(i)+1)
	}
	trips, err := s2.Triplets()
	if err != nil || len(trips) != 1 {
		t.Fatalf("Triplets = %v, %v; want 1 entry", trips, err)
	}
	if trips[0].Frag != 0 || trips[0].FP != 99 || string(trips[0].Enc) != "\x01\x02\x03" {
		t.Errorf("recovered triplet = %+v", trips[0])
	}
}

// TestRepeatedCheckpoints: a fragment and a triplet unchanged since the
// last checkpoint live in that checkpoint's snapshot; the next checkpoint
// must carry them over and repoint them before it deletes that snapshot.
func TestRepeatedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	f0 := testFragment(0, frag.NoParent, "root")
	mustPut(t, s, f0, 1)
	if err := s.PutTriplets(0, 1, []frag.Triplet{{FP: 99, Enc: []byte{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		checkFragment(t, s, f0, 1)
	}
	if trips, err := s.Triplets(); err != nil || len(trips) != 1 {
		t.Fatalf("Triplets = %v, %v; want 1 entry", trips, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	checkFragment(t, s2, f0, 1)
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	f0 := testFragment(0, frag.NoParent, "kept")
	mustPut(t, s, f0, 1)
	// Crash mid-append: garbage (a torn record) at the WAL tail.
	walPath := filepath.Join(dir, segName(1))
	s.closeFiles()
	wf, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write([]byte{0x42, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	s2 := mustOpen(t, dir, Options{})
	checkFragment(t, s2, f0, 1)
	// Appends continue cleanly past the truncation point.
	f1 := testFragment(1, 0, "after")
	mustPut(t, s2, f1, 1)
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	checkFragment(t, s3, f0, 1)
	checkFragment(t, s3, f1, 1)
}

func TestMidLogCorruptionInFinalSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		mustPut(t, s, testFragment(xmltree.FragmentID(i), frag.NoParent, "f"), 1)
	}
	s.closeFiles()
	// Flip a byte inside the SECOND record's body: later records are
	// intact, so this is damage in the middle of the log — acknowledged
	// fragments 2-4 must not be silently dropped as a "torn tail".
	path := filepath.Join(dir, segName(1))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := int64(buf[magicLen]) | int64(buf[magicLen+1])<<8 |
		int64(buf[magicLen+2])<<16 | int64(buf[magicLen+3])<<24
	second := int64(magicLen) + recordHeaderLen + firstLen
	buf[second+recordHeaderLen+3] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open silently truncated mid-log corruption with valid records after it")
	}
}

func TestCorruptEarlierSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 256, CheckpointBytes: -1})
	for i := 0; i < 8; i++ {
		mustPut(t, s, testFragment(xmltree.FragmentID(i), frag.NoParent, "f"), 1)
	}
	if s.Stats().Segments < 2 {
		t.Fatalf("want multiple segments, got %d", s.Stats().Segments)
	}
	s.closeFiles()
	// Flip a byte inside the FIRST segment's first record body: that is
	// not a crash tail, it is real corruption.
	path := filepath.Join(dir, segName(1))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[magicLen+recordHeaderLen+3] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded on a corrupt non-final segment")
	}
}

func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 512, CheckpointBytes: -1})
	want := make(map[xmltree.FragmentID]uint64)
	for i := 0; i < 20; i++ {
		id := xmltree.FragmentID(i % 5)
		want[id]++
		mustPut(t, s, testFragment(id, frag.NoParent, "r"), want[id])
	}
	if s.Stats().Segments < 2 {
		t.Fatalf("want rotation, got %d segment(s)", s.Stats().Segments)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	for id, v := range want {
		if got := s2.Versions()[id]; got != v {
			t.Errorf("fragment %d version = %d, want %d", id, got, v)
		}
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 256, CheckpointBytes: 1024})
	for i := 0; i < 40; i++ {
		mustPut(t, s, testFragment(xmltree.FragmentID(i%3), frag.NoParent, "a"), uint64(i)+1)
	}
	// Auto-checkpoints run on a background goroutine; give one a moment.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SnapshotSeq == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.Stats(); st.SnapshotSeq == 0 {
		t.Fatalf("no auto checkpoint ran: %+v", st)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got := len(s2.FragmentIDs()); got != 3 {
		t.Errorf("recovered %d fragments, want 3", got)
	}
}

func TestTripletVersionFiltering(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, testFragment(0, frag.NoParent, "f"), 1)
	if err := s.PutTriplets(0, 1, []frag.Triplet{{FP: 11, Enc: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	// The fragment moves on; the cached entry is now stale.
	mustPut(t, s, testFragment(0, frag.NoParent, "f2"), 2)
	if err := s.PutTriplets(0, 2, []frag.Triplet{{FP: 22, Enc: []byte("new")}}); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	trips, err := s2.Triplets()
	if err != nil {
		t.Fatal(err)
	}
	if len(trips) != 1 || trips[0].FP != 22 || string(trips[0].Enc) != "new" {
		t.Fatalf("Triplets = %+v, want only the fp=22 entry", trips)
	}
}

func TestGracefulCloseCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	f := testFragment(0, frag.NoParent, "x")
	mustPut(t, s, f, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.PutFragment(f, 4); err == nil {
		t.Fatal("PutFragment succeeded on a closed store")
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	checkFragment(t, s2, f, 3)
	if st := s2.Stats(); st.SnapshotSeq == 0 {
		t.Errorf("Close did not checkpoint: %+v", st)
	}
}

func TestFreshDirIsEmpty(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if !s.Empty() {
		t.Fatal("fresh store is not Empty")
	}
	mustPut(t, s, testFragment(0, frag.NoParent, "x"), 1)
	if s.Empty() {
		t.Fatal("seeded store reports Empty")
	}
}
