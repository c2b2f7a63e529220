// Package views implements Section 5 of the paper: materialized Boolean
// XPath views and their incremental maintenance.
//
// A materialized view M(q, T) is the pair (S_T, ans) — the source tree and
// the cached answer — augmented, exactly as the paper prescribes, with the
// triplet (V, CV, DV) of every fragment. The maintenance algorithm has the
// paper's two salient features:
//
//   - recomputation is localized: after updates inside fragment F_j, only
//     the site storing F_j re-runs Procedure bottomUp, and only on F_j;
//   - network traffic depends on neither |T| nor the size of the update —
//     only the O(|q|·card(F_j)) triplet travels.
//
// Updates come in two classes (Section 5): content updates (insNode,
// delNode) and fragmentation updates (splitFragments, mergeFragments).
// Nodes inside a fragment are addressed by child-index paths from the
// fragment root, so updates work identically over the in-process cluster
// and TCP sites.
package views

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
	"repro/internal/xmltree"
)

// Message kinds of the view-maintenance protocol.
const (
	// KindApplyUpdate applies content updates to one fragment and returns
	// the recomputed triplet.
	KindApplyUpdate = "views.applyUpdate"
	// KindSplit performs splitFragments(v) at the fragment's site,
	// optionally shipping the new fragment to another site.
	KindSplit = "views.split"
	// KindAdopt installs a shipped fragment at a site and returns its
	// triplet.
	KindAdopt = "views.adopt"
	// KindMerge performs mergeFragments(v): the fragment absorbs one of
	// its sub-fragments (fetched from its site if remote).
	KindMerge = "views.merge"
	// KindYield removes a fragment from a site and returns its subtree.
	KindYield = "views.yield"
	// KindRegisterProg registers a standing program (a subscription's
	// prepared query batch) for a set of fragments at their site: the
	// site keeps the program's triplets incrementally maintained across
	// updates and pushes a Delta whenever a fragment's root formulas
	// flip. The response carries the per-fragment baseline triplets.
	KindRegisterProg = "views.registerProg"
	// KindSetParent re-journals a stored fragment under a new parent — a
	// split that moves a subtree containing virtual nodes re-parents the
	// referenced sub-fragments, and ones stored away from the split site
	// are fixed through this message so their persisted Parent never goes
	// stale. The fragment's content is unchanged, so its version (and any
	// cached triplets) stays valid.
	KindSetParent = "views.setParent"
)

// OpKind is the content-update operation type.
type OpKind uint8

const (
	// OpInsert is insNode(A, v): insert a node labeled Label (with
	// optional Text) as the last child of the node at Path.
	OpInsert OpKind = iota
	// OpDelete is delNode(v): delete the node at Path (and its subtree).
	OpDelete
	// OpSetText replaces the text content of the node at Path. (A
	// convenience composite of delNode/insNode on text, needed by every
	// realistic workload — e.g. a stock's sell price changing.)
	OpSetText
)

// UpdateOp is one primitive update, addressed by the child-index path from
// the fragment root (empty path = the root itself).
type UpdateOp struct {
	Op    OpKind
	Path  []int
	Label string // OpInsert
	Text  string // OpInsert, OpSetText
}

// ErrBadUpdate is wrapped by update decoding/application failures.
var ErrBadUpdate = errors.New("views: bad update")

// NodeAt resolves a child-index path from root.
func NodeAt(root *xmltree.Node, path []int) (*xmltree.Node, error) {
	n := root
	for depth, i := range path {
		if i < 0 || i >= len(n.Children) {
			return nil, fmt.Errorf("%w: index %d out of range at depth %d", ErrBadUpdate, i, depth)
		}
		n = n.Children[i]
	}
	return n, nil
}

// PathOf computes the child-index path of a node within its fragment
// (climbing Parent pointers to the fragment root).
func PathOf(node *xmltree.Node) []int {
	var rev []int
	for n := node; n.Parent != nil; n = n.Parent {
		idx := -1
		for i, c := range n.Parent.Children {
			if c == n {
				idx = i
				break
			}
		}
		rev = append(rev, idx)
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// Touched reports the nodes one applied op affected, in the vocabulary
// of eval.Plane.Patch: a freshly inserted subtree root, a node whose
// in-place inputs changed (a setText target, or the parent a child was
// deleted from), and a detached subtree root.
type Touched struct {
	Fresh   *xmltree.Node
	Dirty   *xmltree.Node
	Removed *xmltree.Node
}

// Apply executes the op against a fragment root, mutating it in place.
func (op UpdateOp) Apply(root *xmltree.Node) error {
	_, err := op.ApplyTracked(root)
	return err
}

// ApplyTracked executes the op and reports which nodes it touched, so
// incremental maintenance can recompute only the affected spines.
func (op UpdateOp) ApplyTracked(root *xmltree.Node) (Touched, error) {
	n, err := NodeAt(root, op.Path)
	if err != nil {
		return Touched{}, err
	}
	switch op.Op {
	case OpInsert:
		if n.Virtual {
			return Touched{}, fmt.Errorf("%w: cannot insert under a virtual node", ErrBadUpdate)
		}
		c := n.AppendChild(xmltree.NewElement(op.Label, op.Text))
		return Touched{Fresh: c}, nil
	case OpDelete:
		if n.Parent == nil {
			return Touched{}, fmt.Errorf("%w: cannot delete the fragment root", ErrBadUpdate)
		}
		if len(n.VirtualNodes()) > 0 {
			return Touched{}, fmt.Errorf("%w: subtree contains virtual nodes; merge sub-fragments first", ErrBadUpdate)
		}
		parent := n.Parent
		parent.RemoveChild(n)
		return Touched{Dirty: parent, Removed: n}, nil
	case OpSetText:
		if n.Virtual {
			return Touched{}, fmt.Errorf("%w: virtual nodes carry no text", ErrBadUpdate)
		}
		n.Text = op.Text
		return Touched{Dirty: n}, nil
	default:
		return Touched{}, fmt.Errorf("%w: unknown op %d", ErrBadUpdate, op.Op)
	}
}

// --- codecs ----------------------------------------------------------------

func appendPath(dst []byte, path []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(path)))
	for _, i := range path {
		dst = binary.AppendUvarint(dst, uint64(i))
	}
	return dst
}

func childPath(r *wire.Reader) []int {
	path := make([]int, r.Count(1))
	for i := range path {
		path[i] = int(r.Uvarint())
	}
	return path
}

func appendOp(dst []byte, op UpdateOp) []byte {
	dst = append(dst, byte(op.Op))
	dst = appendPath(dst, op.Path)
	dst = wire.AppendString(dst, op.Label)
	return wire.AppendString(dst, op.Text)
}

func updateOp(r *wire.Reader) UpdateOp {
	op := UpdateOp{Op: OpKind(r.Byte())}
	op.Path = childPath(r)
	op.Label = r.String()
	op.Text = r.String()
	return op
}

// applyUpdateReq: program, fragment ID, ops.
func encodeApplyUpdateReq(prog []byte, id xmltree.FragmentID, ops []UpdateOp) []byte {
	dst := wire.AppendBytes(nil, prog)
	dst = xmltree.AppendFragmentID(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		dst = appendOp(dst, op)
	}
	return dst
}

func decodeApplyUpdateReq(buf []byte) (prog []byte, id xmltree.FragmentID, ops []UpdateOp, err error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	prog = r.Bytes()
	id = xmltree.ReadFragmentID(&r)
	// An op spends four bytes on itself: kind, path length, label
	// length, text length.
	ops = make([]UpdateOp, r.Count(4))
	for i := range ops {
		ops[i] = updateOp(&r)
	}
	return prog, id, ops, r.Done()
}

// tripletSizeResp: encoded triplet plus the fragment's new size.
func encodeTripletSizeResp(triplet []byte, size int) []byte {
	return wire.AppendBytes(binary.AppendUvarint(nil, uint64(size)), triplet)
}

func tripletSize(r *wire.Reader) (triplet []byte, size int) {
	size = int(r.Uvarint())
	return r.Bytes(), size
}

func decodeTripletSizeResp(buf []byte) (triplet []byte, size int, err error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	triplet, size = tripletSize(&r)
	return triplet, size, r.Done()
}

// registerReq: program, fragment IDs.
func encodeRegisterReq(prog []byte, ids []xmltree.FragmentID) []byte {
	return xmltree.AppendFragmentIDs(wire.AppendBytes(nil, prog), ids)
}

func decodeRegisterReq(buf []byte) (prog []byte, ids []xmltree.FragmentID, err error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	prog = r.Bytes()
	ids = xmltree.ReadFragmentIDs(&r)
	return prog, ids, r.Done()
}

// RegItem is one fragment's registration baseline: its triplet under the
// standing program, computed at the given version.
type RegItem struct {
	Frag    xmltree.FragmentID
	Version uint64
	Triplet []byte
}

func encodeRegisterResp(items []RegItem) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(items)))
	for _, it := range items {
		dst = xmltree.AppendFragmentID(dst, it.Frag)
		dst = binary.AppendUvarint(dst, it.Version)
		dst = wire.AppendBytes(dst, it.Triplet)
	}
	return dst
}

func decodeRegisterResp(buf []byte) ([]RegItem, error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	items := make([]RegItem, r.Count(3))
	for i := range items {
		items[i].Frag = xmltree.ReadFragmentID(&r)
		items[i].Version = r.Uvarint()
		items[i].Triplet = r.Bytes()
	}
	return items, r.Done()
}

// Delta is one pushed maintenance notification: after an update to Frag,
// the standing program FP's root formulas changed from the previous
// version's. Flip words record which lanes flipped per vector (all-zero
// when only the formula structure changed — possible with virtual
// nodes); Triplet is the full new encoding, so a subscriber re-solves
// without a round trip.
type Delta struct {
	Frag                  xmltree.FragmentID
	Version               uint64
	FP                    uint64
	FlipV, FlipCV, FlipDV uint64
	Triplet               []byte
}

// Encode renders the delta in the wire form DecodeDelta reads.
func (d Delta) Encode() []byte {
	dst := xmltree.AppendFragmentID(nil, d.Frag)
	dst = binary.AppendUvarint(dst, d.Version)
	dst = binary.AppendUvarint(dst, d.FP)
	dst = binary.AppendUvarint(dst, d.FlipV)
	dst = binary.AppendUvarint(dst, d.FlipCV)
	dst = binary.AppendUvarint(dst, d.FlipDV)
	return wire.AppendBytes(dst, d.Triplet)
}

// DecodeDelta parses a pushed delta payload. The triplet aliases buf.
func DecodeDelta(buf []byte) (Delta, error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	var d Delta
	d.Frag = xmltree.ReadFragmentID(&r)
	d.Version = r.Uvarint()
	d.FP = r.Uvarint()
	d.FlipV = r.Uvarint()
	d.FlipCV = r.Uvarint()
	d.FlipDV = r.Uvarint()
	d.Triplet = r.Bytes()
	return d, r.Done()
}

// splitReq: program, fragment, path of the split node, the new fragment's
// ID, and the site that should adopt it ("" keeps it at the same site).
func encodeSplitReq(prog []byte, id xmltree.FragmentID, path []int, newID xmltree.FragmentID, target string) []byte {
	dst := wire.AppendBytes(nil, prog)
	dst = xmltree.AppendFragmentID(dst, id)
	dst = appendPath(dst, path)
	dst = xmltree.AppendFragmentID(dst, newID)
	return wire.AppendString(dst, target)
}

func decodeSplitReq(buf []byte) (prog []byte, id xmltree.FragmentID, path []int, newID xmltree.FragmentID, target string, err error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	prog = r.Bytes()
	id = xmltree.ReadFragmentID(&r)
	path = childPath(&r)
	newID = xmltree.ReadFragmentID(&r)
	target = r.String()
	return prog, id, path, newID, target, r.Done()
}

// splitResp: two (triplet, size) pairs — the revised fragment and the new
// fragment — followed by the sub-fragments the split subtree carried away
// (their parent is now the new fragment).
func encodeSplitResp(ownTriplet []byte, ownSize int, newTriplet []byte, newSize int, moved []xmltree.FragmentID) []byte {
	dst := encodeTripletSizeResp(ownTriplet, ownSize)
	dst = append(dst, encodeTripletSizeResp(newTriplet, newSize)...)
	return xmltree.AppendFragmentIDs(dst, moved)
}

func decodeSplitResp(buf []byte) (own []byte, ownSize int, nw []byte, newSize int, moved []xmltree.FragmentID, err error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	own, ownSize = tripletSize(&r)
	nw, newSize = tripletSize(&r)
	moved = xmltree.ReadFragmentIDs(&r)
	return own, ownSize, nw, newSize, moved, r.Done()
}

// setParentReq: fragment ID and its new parent fragment ID.
func encodeSetParentReq(id, parent xmltree.FragmentID) []byte {
	return xmltree.AppendFragmentID(xmltree.AppendFragmentID(nil, id), parent)
}

func decodeSetParentReq(buf []byte) (id, parent xmltree.FragmentID, err error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	id = xmltree.ReadFragmentID(&r)
	parent = xmltree.ReadFragmentID(&r)
	return id, parent, r.Done()
}

// adoptReq: program, fragment ID, parent fragment ID + 1, subtree bytes.
func encodeAdoptReq(prog []byte, id, parent xmltree.FragmentID, subtree []byte) []byte {
	dst := wire.AppendBytes(nil, prog)
	dst = xmltree.AppendFragmentID(dst, id)
	dst = xmltree.AppendFragmentID(dst, parent+1)
	return wire.AppendBytes(dst, subtree)
}

func decodeAdoptReq(buf []byte) (prog []byte, id, parent xmltree.FragmentID, subtree []byte, err error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	prog = r.Bytes()
	id = xmltree.ReadFragmentID(&r)
	parent = xmltree.ReadFragmentID(&r) - 1
	subtree = r.Bytes()
	return prog, id, parent, subtree, r.Done()
}

// fragIDReq: a bare fragment ID (yield requests).
func encodeFragIDReq(id xmltree.FragmentID) []byte {
	return xmltree.AppendFragmentID(nil, id)
}

func decodeFragIDReq(buf []byte) (xmltree.FragmentID, error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	id := xmltree.ReadFragmentID(&r)
	return id, r.Done()
}

// mergeReq: program, parent fragment, child fragment, and the site holding
// the child ("" = same site).
func encodeMergeReq(prog []byte, id, child xmltree.FragmentID, childSite string) []byte {
	dst := wire.AppendBytes(nil, prog)
	dst = xmltree.AppendFragmentID(dst, id)
	dst = xmltree.AppendFragmentID(dst, child)
	return wire.AppendString(dst, childSite)
}

func decodeMergeReq(buf []byte) (prog []byte, id, child xmltree.FragmentID, childSite string, err error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	prog = r.Bytes()
	id = xmltree.ReadFragmentID(&r)
	child = xmltree.ReadFragmentID(&r)
	childSite = r.String()
	return prog, id, child, childSite, r.Done()
}
