package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frag"
	"repro/internal/xmltree"
)

// fuzzRecordSeeds are framed record streams — the shapes Open replays —
// plus torn and corrupt tails, and updates that do not apply.
func fuzzRecordSeeds() [][]byte {
	tree := xmltree.Encode(xmltree.NewElement("a", "x",
		xmltree.NewElement("b", ""), xmltree.NewVirtual(7)))
	put, _ := putBody(0, frag.NoParent, 3, tree)
	trip, _ := tripletBody(2, 5, 0xfeed, []byte{1, 2, 3, 4})
	update, _ := opsBody(0, 4, xmltree.AppendOps(nil, []xmltree.UpdateOp{
		{Op: xmltree.OpInsert, Label: "c", Text: "new"},
		{Op: xmltree.OpSetText, Path: []int{0}, Text: "y"},
		{Op: xmltree.OpDelete, Path: []int{2}},
	}))
	updTrip, _ := tripletBody(0, 4, 0xbeef, []byte{5, 6})
	var stream []byte
	for _, body := range [][]byte{put, deleteBody(1, 9), versionBody(4, 2), trip, update, updTrip} {
		stream = frameRecord(stream, body)
	}
	framed := func(bodies ...[]byte) []byte {
		var out []byte
		for _, b := range bodies {
			out = frameRecord(out, b)
		}
		return out
	}
	deleteVirtual, _ := opsBody(0, 4, xmltree.AppendOps(nil, []xmltree.UpdateOp{{Op: xmltree.OpDelete, Path: []int{1}}}))
	outOfRange, _ := opsBody(0, 4, xmltree.AppendOps(nil, []xmltree.UpdateOp{{Op: xmltree.OpSetText, Path: []int{0, 3}}}))
	garbled, _ := opsBody(0, 4, []byte{2, 9})
	orphan, _ := opsBody(5, 1, xmltree.AppendOps(nil, nil))
	return [][]byte{
		framed(put, deleteVirtual), // ops that do not apply
		framed(put, outOfRange),
		framed(put, garbled),
		framed(put, orphan), // an update of a fragment with no content
		nil,
		stream,
		stream[:len(stream)-3],               // torn final record
		append(bytes.Clone(stream), 0xff),    // garbage tail
		frameRecord(nil, snapEndBody(0)),     // snapshot footer inside a WAL
		{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, // absurd length prefix
	}
}

// FuzzWALReplay feeds an arbitrary byte stream to the WAL decoder the way
// a crash would leave it on disk: Open must never panic; it either repairs
// a genuinely torn tail or rejects mid-log corruption with an error; and
// accepted state must survive a checkpointed close and a second recovery
// byte-for-byte (versions, parents, trees and triplets identical) — the
// decoder/snapshot parity that keeps recovery idempotent.
func FuzzWALReplay(f *testing.F) {
	for _, seed := range fuzzRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := append([]byte(walMagic), data...)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			// Mid-log damage (a bad record with intact records after it)
			// is reported, never silently truncated; only a genuinely torn
			// tail is repaired. Either way: no panic.
			return
		}
		state1, ok := captureState(t, s)
		// Close checkpoints whatever replayed; recovery through the
		// snapshot must reproduce the WAL-replayed state exactly. The
		// checkpoint folds pending updates, so one that does not apply
		// fails it, as corruption.
		if err := s.Close(); err != nil && (ok || !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("Close: %v", err)
		}
		if !ok {
			// A CRC-valid record carrying an undecodable tree or an update
			// that does not apply: the load surfaced ErrCorrupt. Still no
			// panic, and reopening must agree rather than crash.
			s2, err := Open(dir, Options{})
			if err == nil {
				s2.Close()
			}
			return
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("re-Open after checkpoint: %v", err)
		}
		defer s2.Close()
		state2, ok2 := captureState(t, s2)
		if !ok2 {
			t.Fatal("state became undecodable after checkpoint")
		}
		if !reflect.DeepEqual(state1.versions, state2.versions) {
			t.Fatalf("versions diverged: %v vs %v", state1.versions, state2.versions)
		}
		if !reflect.DeepEqual(state1.trees, state2.trees) {
			t.Fatalf("trees diverged: %v vs %v", state1.trees, state2.trees)
		}
		if !reflect.DeepEqual(state1.triplets, state2.triplets) {
			t.Fatalf("triplets diverged: %v vs %v", state1.triplets, state2.triplets)
		}
	})
}

type fuzzState struct {
	versions map[xmltree.FragmentID]uint64
	trees    map[xmltree.FragmentID]string
	triplets map[tripKey]string
}

// captureState loads everything the store recovered. ok is false when a
// payload that passed the CRC fails its own codec (possible only for
// fuzzer-built records) — callers then only assert crash-freedom.
func captureState(t *testing.T, s *Store) (fuzzState, bool) {
	t.Helper()
	st := fuzzState{
		versions: s.Versions(),
		trees:    make(map[xmltree.FragmentID]string),
		triplets: make(map[tripKey]string),
	}
	for _, id := range s.FragmentIDs() {
		fr, _, ok, err := s.LoadFragment(id)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("LoadFragment(%d) = %v, want nil or ErrCorrupt", id, err)
		}
		if err != nil || !ok {
			return st, false
		}
		st.trees[id] = fr.Root.String()
	}
	trips, err := s.Triplets()
	if err != nil {
		return st, false
	}
	for _, te := range trips {
		st.triplets[tripKey{id: te.Frag, fp: te.FP}] = string(te.Enc)
	}
	return st, true
}

// FuzzSnapshotLoad drives the snapshot reader: arbitrary bytes after the
// snapshot magic must either load or be rejected with an error — never a
// panic, and never a silent empty store when the footer is missing.
func FuzzSnapshotLoad(f *testing.F) {
	// A well-formed snapshot seed: records + footer.
	tree := xmltree.Encode(xmltree.NewElement("r", ""))
	put, _ := putBody(0, frag.NoParent, 1, tree)
	var good []byte
	good = frameRecord(good, put)
	good = frameRecord(good, versionBody(9, 4))
	good = frameRecord(good, snapEndBody(2))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte{})
	for _, seed := range fuzzRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		snap := append([]byte(snapMagic), data...)
		if err := os.WriteFile(filepath.Join(dir, snapName(1)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return // rejected, fine
		}
		defer s.Close()
		captureState(t, s)
	})
}
