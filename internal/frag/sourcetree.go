package frag

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/wire"
	"repro/internal/xmltree"
)

// SiteID names a site (machine) holding fragments. The empty SiteID is
// invalid.
type SiteID string

// Assignment maps fragments to the sites storing them — the function h of
// Section 2.1.
type Assignment map[xmltree.FragmentID]SiteID

// Entry is one node of the source tree: a fragment, where it lives, and its
// place in the fragment hierarchy.
type Entry struct {
	Frag   xmltree.FragmentID
	Parent xmltree.FragmentID // NoParent for the root fragment
	Site   SiteID
	// Size is |F_j| in nodes; HybridParBoX uses the total to locate the
	// paper's tipping point card(F) vs |T|/|q|.
	Size int
	// Depth is the fragment's depth in the fragment tree (root = 0);
	// LazyParBoX evaluates level by level.
	Depth int
	// Children are the sub-fragments, in ascending ID order.
	Children []xmltree.FragmentID
}

// SourceTree is S_T of Section 2.1: the names of the sites storing the
// fragments of T and the fragment hierarchy. It is the only structure the
// evaluation and incremental-maintenance algorithms require.
type SourceTree struct {
	entries map[xmltree.FragmentID]*Entry
	root    xmltree.FragmentID
}

// BuildSourceTree derives the source tree of a forest under an assignment.
// Every fragment must be assigned a non-empty site.
func BuildSourceTree(f *Forest, assign Assignment) (*SourceTree, error) {
	st := &SourceTree{entries: make(map[xmltree.FragmentID]*Entry), root: f.RootID()}
	for _, id := range f.IDs() {
		fr := f.frags[id]
		site, ok := assign[id]
		if !ok || site == "" {
			return nil, fmt.Errorf("frag: fragment %d has no site assignment", id)
		}
		st.entries[id] = &Entry{Frag: id, Parent: fr.Parent, Site: site, Size: fr.Size()}
	}
	if err := st.finish(); err != nil {
		return nil, err
	}
	return st, nil
}

// SourceTreeFromEntries builds a source tree directly from entries
// (Children and Depth are derived; exactly one entry must have
// Parent == NoParent). The manifest layer of the CLI tools uses it.
func SourceTreeFromEntries(entries []Entry) (*SourceTree, error) {
	st := &SourceTree{entries: make(map[xmltree.FragmentID]*Entry, len(entries))}
	rootSet := false
	for _, e := range entries {
		if e.Site == "" {
			return nil, fmt.Errorf("frag: fragment %d has no site", e.Frag)
		}
		cp := e
		cp.Children = nil
		cp.Depth = 0
		if _, dup := st.entries[e.Frag]; dup {
			return nil, fmt.Errorf("frag: duplicate fragment %d", e.Frag)
		}
		st.entries[e.Frag] = &cp
		if e.Parent == NoParent {
			if rootSet {
				return nil, errors.New("frag: multiple root fragments")
			}
			st.root = e.Frag
			rootSet = true
		}
	}
	if !rootSet {
		return nil, errors.New("frag: no root fragment")
	}
	if err := st.finish(); err != nil {
		return nil, err
	}
	return st, nil
}

// finish derives Children, Depth and validates the parent structure.
func (st *SourceTree) finish() error {
	rootSeen := false
	for id, e := range st.entries {
		if e.Parent == NoParent {
			if id != st.root {
				return fmt.Errorf("frag: fragment %d has no parent but is not the root", id)
			}
			rootSeen = true
			continue
		}
		p, ok := st.entries[e.Parent]
		if !ok {
			return fmt.Errorf("frag: fragment %d has unknown parent %d", id, e.Parent)
		}
		p.Children = append(p.Children, id)
	}
	if !rootSeen {
		return errors.New("frag: source tree has no root entry")
	}
	for _, e := range st.entries {
		sort.Slice(e.Children, func(i, j int) bool { return e.Children[i] < e.Children[j] })
	}
	// Depths via BFS; also detects unreachable entries (cycles).
	visited := 0
	queue := []xmltree.FragmentID{st.root}
	st.entries[st.root].Depth = 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		visited++
		e := st.entries[id]
		for _, c := range e.Children {
			st.entries[c].Depth = e.Depth + 1
			queue = append(queue, c)
		}
	}
	if visited != len(st.entries) {
		return errors.New("frag: source tree contains unreachable fragments (cycle?)")
	}
	return nil
}

// Root returns the root fragment's ID.
func (st *SourceTree) Root() xmltree.FragmentID { return st.root }

// Count returns card(F).
func (st *SourceTree) Count() int { return len(st.entries) }

// Entry returns the entry for a fragment.
func (st *SourceTree) Entry(id xmltree.FragmentID) (*Entry, bool) {
	e, ok := st.entries[id]
	return e, ok
}

// Fragments returns all fragment IDs in ascending order.
func (st *SourceTree) Fragments() []xmltree.FragmentID {
	ids := make([]xmltree.FragmentID, 0, len(st.entries))
	for id := range st.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Sites returns the distinct sites, sorted. Stage 1 of ParBoX uses this to
// identify which sites hold at least one fragment.
func (st *SourceTree) Sites() []SiteID {
	set := make(map[SiteID]bool)
	for _, e := range st.entries {
		set[e.Site] = true
	}
	sites := make([]SiteID, 0, len(set))
	for s := range set {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites
}

// FragmentsAt returns the fragments stored at a site (card(F_Si) many),
// ascending.
func (st *SourceTree) FragmentsAt(site SiteID) []xmltree.FragmentID {
	var ids []xmltree.FragmentID
	for id, e := range st.entries {
		if e.Site == site {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Site returns the site storing a fragment.
func (st *SourceTree) Site(id xmltree.FragmentID) (SiteID, bool) {
	e, ok := st.entries[id]
	if !ok {
		return "", false
	}
	return e.Site, true
}

// TopoOrder returns fragments parents-first (the root first); reversing it
// gives the children-first order Procedure evalST solves in.
func (st *SourceTree) TopoOrder() []xmltree.FragmentID {
	out := make([]xmltree.FragmentID, 0, len(st.entries))
	queue := []xmltree.FragmentID{st.root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		out = append(out, id)
		queue = append(queue, st.entries[id].Children...)
	}
	return out
}

// Levels returns fragments grouped by depth: Levels()[d] holds the
// fragments at depth d. LazyParBoX descends one level per step.
func (st *SourceTree) Levels() [][]xmltree.FragmentID {
	var levels [][]xmltree.FragmentID
	for _, id := range st.TopoOrder() {
		d := st.entries[id].Depth
		for len(levels) <= d {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], id)
	}
	return levels
}

// TotalSize returns |T| as recorded in the source tree (sum of fragment
// sizes, which counts virtual placeholders; the over-count is exactly
// card(F)−1 and is irrelevant for the Hybrid tipping point).
func (st *SourceTree) TotalSize() int {
	total := 0
	for _, e := range st.entries {
		total += e.Size
	}
	return total
}

// Clone returns a deep copy; sites in FullDistParBoX each hold one.
func (st *SourceTree) Clone() *SourceTree {
	c := &SourceTree{entries: make(map[xmltree.FragmentID]*Entry, len(st.entries)), root: st.root}
	for id, e := range st.entries {
		ce := *e
		ce.Children = append([]xmltree.FragmentID(nil), e.Children...)
		c.entries[id] = &ce
	}
	return c
}

// SetEntry inserts or replaces an entry and recomputes the derived
// structure; the incremental-maintenance layer uses it for
// splitFragments/mergeFragments updates. Children/Depth of the passed entry
// are ignored (they are derived).
func (st *SourceTree) SetEntry(e Entry) error {
	e.Children = nil
	cp := e
	st.entries[e.Frag] = &cp
	return st.rebuild()
}

// RemoveEntry deletes a fragment from the source tree (it must be a leaf).
func (st *SourceTree) RemoveEntry(id xmltree.FragmentID) error {
	e, ok := st.entries[id]
	if !ok {
		return fmt.Errorf("frag: no source-tree entry for fragment %d", id)
	}
	if len(e.Children) > 0 {
		return fmt.Errorf("frag: fragment %d still has sub-fragments", id)
	}
	delete(st.entries, id)
	return st.rebuild()
}

func (st *SourceTree) rebuild() error {
	for _, e := range st.entries {
		e.Children = nil
		e.Depth = 0
	}
	return st.finish()
}

// String renders the source tree as an indented outline, for logs and the
// experiment harness.
func (st *SourceTree) String() string {
	var b strings.Builder
	var rec func(id xmltree.FragmentID)
	rec = func(id xmltree.FragmentID) {
		e := st.entries[id]
		fmt.Fprintf(&b, "%sF%d @ %s (%d nodes)\n", strings.Repeat("  ", e.Depth), id, e.Site, e.Size)
		for _, c := range e.Children {
			rec(c)
		}
	}
	rec(st.root)
	return b.String()
}

// ErrBadSourceTree is wrapped by decoding failures.
var ErrBadSourceTree = errors.New("frag: malformed source tree encoding")

// Encode serializes the source tree (entry count, then per entry: fragment
// ID, parent+1, size, site string). Its size is O(card(F)) — the storage
// overhead per site that Section 4 calls "minimum".
func (st *SourceTree) Encode() []byte {
	dst := binary.AppendUvarint(nil, uint64(len(st.entries)))
	for _, id := range st.Fragments() {
		e := st.entries[id]
		dst = xmltree.AppendFragmentID(dst, e.Frag)
		dst = xmltree.AppendFragmentID(dst, e.Parent+1)
		dst = binary.AppendUvarint(dst, uint64(e.Size))
		dst = wire.AppendString(dst, string(e.Site))
	}
	return dst
}

// DecodeSourceTree parses an encoded source tree and validates it.
func DecodeSourceTree(buf []byte) (*SourceTree, error) {
	r := wire.NewReader(buf, ErrBadSourceTree)
	count := r.Count(4)
	st := &SourceTree{entries: make(map[xmltree.FragmentID]*Entry, count)}
	rootSet := false
	for i := 0; i < count; i++ {
		e := &Entry{Frag: xmltree.ReadFragmentID(&r)}
		e.Parent = xmltree.ReadFragmentID(&r) - 1
		e.Size = int(r.Uvarint())
		e.Site = SiteID(r.String())
		if _, dup := st.entries[e.Frag]; dup {
			r.Fail("duplicate fragment %d", e.Frag)
		}
		st.entries[e.Frag] = e
		if e.Parent == NoParent {
			if rootSet {
				r.Fail("multiple roots")
			}
			st.root = e.Frag
			rootSet = true
		}
	}
	if !rootSet {
		r.Fail("no root entry")
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := st.finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSourceTree, err)
	}
	return st, nil
}

// AssignRoundRobin distributes fragments over sites round-robin in ID
// order, always pinning the root fragment to the first site (the
// coordinator in the experiments).
func AssignRoundRobin(f *Forest, sites []SiteID) Assignment {
	a := make(Assignment, f.Count())
	ids := f.IDs()
	a[f.RootID()] = sites[0]
	i := 1
	for _, id := range ids {
		if id == f.RootID() {
			continue
		}
		a[id] = sites[i%len(sites)]
		i++
	}
	return a
}

// AssignAll maps every fragment to one site.
func AssignAll(f *Forest, site SiteID) Assignment {
	a := make(Assignment, f.Count())
	for _, id := range f.IDs() {
		a[id] = site
	}
	return a
}
