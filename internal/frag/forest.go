// Package frag implements the fragmentation model of Section 2.1 of the
// paper: an XML tree decomposed into a collection of disjoint fragments,
// each of which may contain virtual nodes pointing at its sub-fragments.
// The package also provides the source tree S_T — the only structure the
// distributed algorithms require — and the splitFragments/mergeFragments
// primitives of Section 5.
//
// No constraints are imposed on the fragmentation: fragments may nest
// arbitrarily, appear at any level and have any size, exactly as the paper
// demands ("our fragmentation setting is the most generic possible").
package frag

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/xmltree"
)

// NoParent marks the root fragment's parent slot.
const NoParent xmltree.FragmentID = -1

// Fragment is one piece of a fragmented document: a subtree whose leaves
// may include virtual nodes standing for its sub-fragments.
type Fragment struct {
	ID     xmltree.FragmentID
	Parent xmltree.FragmentID // NoParent for the root fragment
	Root   *xmltree.Node
}

// Size returns |F_j|, the node count of the fragment including virtual
// placeholders.
func (f *Fragment) Size() int { return f.Root.Size() }

// SubFragments returns the IDs referenced by the fragment's virtual nodes,
// in document order.
func (f *Fragment) SubFragments() []xmltree.FragmentID {
	var ids []xmltree.FragmentID
	for _, v := range f.Root.VirtualNodes() {
		ids = append(ids, v.Frag)
	}
	return ids
}

// Triplet is one program's encoded triplet over a fragment, keyed by the
// program's fingerprint: what the site's triplet cache holds at a
// fragment version, and what the durable store journals so a restarted
// site warm-starts that cache.
type Triplet struct {
	FP  uint64
	Enc []byte
}

// Forest is a fragmented document: a set of fragments linked by virtual
// nodes, rooted at the root fragment. Forest owns its trees; callers must
// not retain references into them across Split/Merge calls.
type Forest struct {
	frags  map[xmltree.FragmentID]*Fragment
	rootID xmltree.FragmentID
	nextID xmltree.FragmentID
	// versions tracks a monotonic per-fragment version, bumped whenever a
	// fragment's tree changes shape through Split/Merge. Deployed sites
	// keep their own counters for serving-time maintenance; the forest's
	// counters cover pre-deployment refragmentation, so any cache keyed on
	// (fragment, version) can treat "version changed" as "content may have
	// changed" across both stages.
	versions map[xmltree.FragmentID]uint64
}

// NewForest wraps a whole tree as a single root fragment with ID 0.
func NewForest(root *xmltree.Node) *Forest {
	f := &Forest{
		frags:    make(map[xmltree.FragmentID]*Fragment),
		rootID:   0,
		nextID:   1,
		versions: make(map[xmltree.FragmentID]uint64),
	}
	f.frags[0] = &Fragment{ID: 0, Parent: NoParent, Root: root}
	f.versions[0] = 1
	return f
}

// FromFragments reconstructs a forest from fragments gathered elsewhere
// (NaiveCentralized reassembles the document from shipped fragments this
// way). The result is validated.
func FromFragments(frs []*Fragment, rootID xmltree.FragmentID) (*Forest, error) {
	f := &Forest{
		frags:    make(map[xmltree.FragmentID]*Fragment, len(frs)),
		rootID:   rootID,
		versions: make(map[xmltree.FragmentID]uint64, len(frs)),
	}
	for _, fr := range frs {
		if _, dup := f.frags[fr.ID]; dup {
			return nil, fmt.Errorf("frag: duplicate fragment %d", fr.ID)
		}
		f.frags[fr.ID] = fr
		f.versions[fr.ID] = 1
		if fr.ID >= f.nextID {
			f.nextID = fr.ID + 1
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// RootID returns the root fragment's ID.
func (f *Forest) RootID() xmltree.FragmentID { return f.rootID }

// Count returns card(F), the number of fragments.
func (f *Forest) Count() int { return len(f.frags) }

// IDs returns all fragment IDs in ascending order.
func (f *Forest) IDs() []xmltree.FragmentID {
	ids := make([]xmltree.FragmentID, 0, len(f.frags))
	for id := range f.frags {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Fragment returns the fragment with the given ID.
func (f *Forest) Fragment(id xmltree.FragmentID) (*Fragment, bool) {
	fr, ok := f.frags[id]
	return fr, ok
}

// TotalSize returns |T|: the number of real (non-virtual) nodes across all
// fragments.
func (f *Forest) TotalSize() int {
	total := 0
	for _, fr := range f.frags {
		fr.Root.Walk(func(n *xmltree.Node) {
			if !n.Virtual {
				total++
			}
		})
	}
	return total
}

// owner returns the fragment containing node n by climbing to its root.
func (f *Forest) owner(n *xmltree.Node) (*Fragment, error) {
	top := n
	for top.Parent != nil {
		top = top.Parent
	}
	for _, fr := range f.frags {
		if fr.Root == top {
			return fr, nil
		}
	}
	return nil, errors.New("frag: node does not belong to this forest")
}

// Split is splitFragments(v) of Section 5: the subtree rooted at v becomes
// a new fragment, and v's place in its old fragment is taken by a virtual
// node. The new fragment's ID is returned. v must be a non-virtual,
// non-fragment-root node of some fragment of the forest.
func (f *Forest) Split(v *xmltree.Node) (xmltree.FragmentID, error) {
	if v.Virtual {
		return 0, errors.New("frag: cannot split at a virtual node")
	}
	if v.Parent == nil {
		return 0, errors.New("frag: cannot split at a fragment root")
	}
	owner, err := f.owner(v)
	if err != nil {
		return 0, err
	}
	id := f.nextID
	f.nextID++
	if !v.Parent.ReplaceChild(v, xmltree.NewVirtual(id)) {
		return 0, errors.New("frag: node is not a child of its parent (corrupt tree)")
	}
	f.frags[id] = &Fragment{ID: id, Parent: owner.ID, Root: v}
	// Both trees changed shape: the owner lost a subtree, the new fragment
	// came into being.
	f.versions[owner.ID]++
	f.versions[id]++
	// Sub-fragments referenced from the moved subtree now hang off the new
	// fragment.
	for _, sub := range f.frags[id].SubFragments() {
		f.frags[sub].Parent = id
	}
	return id, nil
}

// Version returns the fragment's monotonic version (0 if it never existed
// in this forest). It advances on every Split/Merge touching the fragment.
func (f *Forest) Version(id xmltree.FragmentID) uint64 { return f.versions[id] }

// Merge is mergeFragments(v) of Section 5: the virtual node v is replaced
// by the subtree of the fragment it refers to, which disappears as a
// separate fragment. Merging a non-virtual node is a no-op, as in the
// paper ("if v is not virtual, no action is taken").
func (f *Forest) Merge(v *xmltree.Node) error {
	if !v.Virtual {
		return nil
	}
	child, ok := f.frags[v.Frag]
	if !ok {
		return fmt.Errorf("frag: virtual node refers to unknown fragment %d", v.Frag)
	}
	owner, err := f.owner(v)
	if err != nil {
		return err
	}
	if child.Parent != owner.ID {
		return fmt.Errorf("frag: fragment %d is a sub-fragment of %d, not of %d",
			child.ID, child.Parent, owner.ID)
	}
	if !v.Parent.ReplaceChild(v, child.Root) {
		return errors.New("frag: virtual node is not a child of its parent (corrupt tree)")
	}
	delete(f.frags, child.ID)
	// The owner absorbed a subtree; the child is gone but its counter stays
	// monotonic in case the id is ever reused.
	f.versions[owner.ID]++
	f.versions[child.ID]++
	// Grandchildren become children of the merged-into fragment.
	for _, sub := range child.SubFragments() {
		f.frags[sub].Parent = owner.ID
	}
	return nil
}

// MergeAll repeatedly merges until a single fragment remains, returning the
// reassembled document root. The forest is consumed.
func (f *Forest) MergeAll() (*xmltree.Node, error) {
	for len(f.frags) > 1 {
		merged := false
		root := f.frags[f.rootID]
		for _, v := range root.Root.VirtualNodes() {
			if err := f.Merge(v); err != nil {
				return nil, err
			}
			merged = true
		}
		if !merged {
			return nil, errors.New("frag: dangling fragments unreachable from the root")
		}
	}
	return f.frags[f.rootID].Root, nil
}

// Assemble reconstructs the whole document as a fresh tree, leaving the
// forest untouched. It is the reference against which the distributed
// algorithms are differentially tested.
func (f *Forest) Assemble() (*xmltree.Node, error) {
	return f.assemble(f.rootID, make(map[xmltree.FragmentID]bool))
}

func (f *Forest) assemble(id xmltree.FragmentID, busy map[xmltree.FragmentID]bool) (*xmltree.Node, error) {
	if busy[id] {
		return nil, fmt.Errorf("frag: fragment cycle through %d", id)
	}
	busy[id] = true
	defer delete(busy, id)
	fr, ok := f.frags[id]
	if !ok {
		return nil, fmt.Errorf("frag: missing fragment %d", id)
	}
	clone := fr.Root.Clone()
	for _, v := range clone.VirtualNodes() {
		sub, err := f.assemble(v.Frag, busy)
		if err != nil {
			return nil, err
		}
		if !v.Parent.ReplaceChild(v, sub) {
			return nil, errors.New("frag: corrupt clone")
		}
	}
	return clone, nil
}

// Validate checks the forest invariants: the root fragment exists, every
// virtual node references an existing fragment whose Parent matches, every
// non-root fragment is referenced by exactly one virtual node, and the
// parent relation is acyclic.
func (f *Forest) Validate() error {
	if _, ok := f.frags[f.rootID]; !ok {
		return errors.New("frag: missing root fragment")
	}
	refs := make(map[xmltree.FragmentID]int)
	for _, fr := range f.frags {
		if err := xmltree.Validate(fr.Root); err != nil {
			return fmt.Errorf("frag: fragment %d: %w", fr.ID, err)
		}
		for _, sub := range fr.SubFragments() {
			child, ok := f.frags[sub]
			if !ok {
				return fmt.Errorf("frag: fragment %d references missing fragment %d", fr.ID, sub)
			}
			if child.Parent != fr.ID {
				return fmt.Errorf("frag: fragment %d has parent %d but is referenced by %d",
					sub, child.Parent, fr.ID)
			}
			refs[sub]++
		}
	}
	for id, fr := range f.frags {
		if id == f.rootID {
			if fr.Parent != NoParent {
				return fmt.Errorf("frag: root fragment has parent %d", fr.Parent)
			}
			continue
		}
		if refs[id] != 1 {
			return fmt.Errorf("frag: fragment %d referenced by %d virtual nodes, want 1", id, refs[id])
		}
	}
	// Acyclicity: climb each fragment's parent chain.
	for id := range f.frags {
		seen := make(map[xmltree.FragmentID]bool)
		for cur := id; cur != NoParent; cur = f.frags[cur].Parent {
			if seen[cur] {
				return fmt.Errorf("frag: parent cycle through fragment %d", cur)
			}
			seen[cur] = true
		}
	}
	return nil
}

// SplitRandom performs k random splits, turning the forest into k+count
// fragments. Eligible split points are non-root, non-virtual nodes; if a
// fragment runs out of eligible nodes it simply is not split further. It is
// deterministic in r.
func (f *Forest) SplitRandom(r *rand.Rand, k int) error {
	for i := 0; i < k; i++ {
		var eligible []*xmltree.Node
		ids := f.IDs()
		for _, id := range ids {
			fr := f.frags[id]
			fr.Root.Walk(func(n *xmltree.Node) {
				if !n.Virtual && n.Parent != nil {
					eligible = append(eligible, n)
				}
			})
		}
		if len(eligible) == 0 {
			return nil
		}
		if _, err := f.Split(eligible[r.Intn(len(eligible))]); err != nil {
			return err
		}
	}
	return nil
}
