package cluster

import (
	"errors"
	"testing"

	"repro/internal/frag"
	"repro/internal/xmltree"
)

// memStore is a FragmentStore stub recording the journal, for exercising
// the site-side residency machinery without disk.
type memStore struct {
	frags    map[xmltree.FragmentID]*frag.Fragment
	versions map[xmltree.FragmentID]uint64
	triplets int
	puts     int
	loads    int
	failPut  error
}

func newMemStore() *memStore {
	return &memStore{
		frags:    make(map[xmltree.FragmentID]*frag.Fragment),
		versions: make(map[xmltree.FragmentID]uint64),
	}
}

func (m *memStore) PutFragment(f *frag.Fragment, version uint64) error {
	if m.failPut != nil {
		return m.failPut
	}
	m.puts++
	m.frags[f.ID] = &frag.Fragment{ID: f.ID, Parent: f.Parent, Root: f.Root.Clone()}
	m.versions[f.ID] = version
	return nil
}

// PutOps keeps the fragment after the ops, as the real store's replay
// yields it.
func (m *memStore) PutOps(f *frag.Fragment, version uint64, _ []xmltree.UpdateOp) error {
	return m.PutFragment(f, version)
}

func (m *memStore) DeleteFragment(id xmltree.FragmentID, version uint64) error {
	delete(m.frags, id)
	m.versions[id] = version
	return nil
}

func (m *memStore) PutTriplets(_ xmltree.FragmentID, _ uint64, trips []frag.Triplet) error {
	m.triplets += len(trips)
	return nil
}

func (m *memStore) LoadFragment(id xmltree.FragmentID) (*frag.Fragment, uint64, bool, error) {
	m.loads++
	f, ok := m.frags[id]
	if !ok {
		return nil, 0, false, nil
	}
	return &frag.Fragment{ID: f.ID, Parent: f.Parent, Root: f.Root.Clone()}, m.versions[id], true, nil
}

func leaf(id xmltree.FragmentID, label string) *frag.Fragment {
	return &frag.Fragment{ID: id, Parent: 0, Root: xmltree.NewElement(label, "")}
}

func TestSiteJournalsMutations(t *testing.T) {
	site := NewSite("S")
	ms := newMemStore()
	site.AttachStore(ms, 0)

	f1 := leaf(1, "a")
	site.AddFragment(f1)
	if ms.versions[1] != 1 {
		t.Fatalf("journaled version = %d, want 1", ms.versions[1])
	}
	if v := site.BumpFragment(f1); v != 2 || ms.versions[1] != 2 {
		t.Fatalf("bump: site=%d store=%d, want 2", v, ms.versions[1])
	}
	f1.Root.Text = "edited"
	if v := site.CommitUpdate(f1, []xmltree.UpdateOp{{Op: xmltree.OpSetText, Text: "edited"}}); v != 3 || ms.versions[1] != 3 || ms.frags[1].Root.Text != "edited" {
		t.Fatalf("commit: site=%d store=%d, want 3 with the edit journaled", v, ms.versions[1])
	}
	site.RemoveFragment(1)
	if _, ok := ms.frags[1]; ok {
		t.Fatal("removal not journaled")
	}
	if ms.versions[1] != 4 {
		t.Fatalf("dead counter = %d, want 4", ms.versions[1])
	}
	site.PersistTriplets(1, 4, []frag.Triplet{{FP: 42, Enc: []byte{1}}, {FP: 43, Enc: []byte{2}}})
	if ms.triplets != 2 {
		t.Fatalf("triplet journal count = %d", ms.triplets)
	}
}

func TestSiteLazyLoadAndEviction(t *testing.T) {
	site := NewSite("S")
	ms := newMemStore()
	site.AttachStore(ms, 2)

	for id := xmltree.FragmentID(1); id <= 4; id++ {
		site.AddFragment(leaf(id, "f"))
	}
	if n := site.ResidentFragments(); n != 2 {
		t.Fatalf("resident = %d, want 2", n)
	}
	// Every fragment is still reachable; evicted ones reload from the
	// store at their exact version, without a bump.
	for id := xmltree.FragmentID(1); id <= 4; id++ {
		f, ok := site.Fragment(id)
		if !ok || f.ID != id {
			t.Fatalf("Fragment(%d) = %v, %v", id, f, ok)
		}
		if v := site.FragmentVersion(id); v != 1 {
			t.Fatalf("version after reload = %d, want 1", v)
		}
	}
	if ms.loads == 0 {
		t.Fatal("no lazy loads happened")
	}
	if n := site.ResidentFragments(); n != 2 {
		t.Fatalf("resident after reloads = %d, want 2", n)
	}
	// LRU: touching 3 then 4 leaves exactly those resident.
	site.Fragment(3)
	site.Fragment(4)
	ids := site.FragmentIDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 4 {
		t.Fatalf("resident set = %v, want [3 4]", ids)
	}
	// A removed fragment stays gone even though its counter lives on.
	site.RemoveFragment(2)
	if _, ok := site.Fragment(2); ok {
		t.Fatal("removed fragment reloaded")
	}
	// Bumping via the handler's pointer re-installs the mutated fragment
	// even after an eviction raced it out of the resident table — the
	// mutation is journaled, never lost.
	held, ok := site.Fragment(1)
	if !ok {
		t.Fatal("fragment 1 unreachable")
	}
	site.Fragment(3)
	site.Fragment(4) // LRU-evict 1 again while the handler holds it
	held.Root.Text = "mutated"
	v := site.BumpFragment(held)
	if err := site.StoreErr(); err != nil {
		t.Fatalf("bump after eviction errored: %v", err)
	}
	if ms.versions[1] != v || ms.frags[1].Root.Text != "mutated" {
		t.Fatalf("mutation not journaled: store version=%d text=%q", ms.versions[1], ms.frags[1].Root.Text)
	}
	if got, ok := site.Fragment(1); !ok || got.Root.Text != "mutated" {
		t.Fatal("mutated fragment not re-installed as authoritative")
	}
}

func TestSiteStoreErrSticky(t *testing.T) {
	site := NewSite("S")
	ms := newMemStore()
	boom := errors.New("disk full")
	ms.failPut = boom
	site.AttachStore(ms, 0)
	site.AddFragment(leaf(1, "a"))
	if !errors.Is(site.StoreErr(), boom) {
		t.Fatalf("StoreErr = %v, want %v", site.StoreErr(), boom)
	}
	// The site keeps serving from memory despite the failing journal.
	if _, ok := site.Fragment(1); !ok {
		t.Fatal("fragment lost after journal failure")
	}
}
