package xmltree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Content updates (Section 5 of the paper) and their one encoding. The
// view-maintenance protocol ships an op list to the fragment's site, and
// the durable store journals the same bytes for every committed update,
// so a request and its WAL record replay through one codec and one
// ApplyTracked.

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
var ErrBadUpdate = errors.New("xmltree: bad update")

// NodeAt resolves a child-index path from root.
func NodeAt(root *Node, path []int) (*Node, error) {
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
func PathOf(node *Node) []int {
	var rev []int
	for n := node; n.Parent != nil; n = n.Parent {
		rev = append(rev, childIndex(n.Parent, n))
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// childIndex is c's position among p's children, -1 if absent.
func childIndex(p, c *Node) int {
	for i, k := range p.Children {
		if k == c {
			return i
		}
	}
	return -1
}

// Touched reports the nodes one applied op affected, in the vocabulary
// of eval.Plane.Patch: a freshly inserted subtree root, a node whose
// in-place inputs changed (a setText target, or the parent a child was
// deleted from), and a detached subtree root. Index and OldText are what
// Undo needs besides: the detached node's former position and the
// replaced text.
type Touched struct {
	Fresh   *Node
	Dirty   *Node
	Removed *Node
	Index   int
	OldText string
}

// Apply executes the op against a fragment root, mutating it in place.
func (op UpdateOp) Apply(root *Node) error {
	_, err := op.ApplyTracked(root)
	return err
}

// ApplyTracked executes the op and reports which nodes it touched, so
// incremental maintenance can recompute only the affected spines and a
// failed batch can undo the ops it already applied. An op that fails
// leaves the tree as it was.
func (op UpdateOp) ApplyTracked(root *Node) (Touched, error) {
	n, err := NodeAt(root, op.Path)
	if err != nil {
		return Touched{}, err
	}
	switch op.Op {
	case OpInsert:
		if n.Virtual {
			return Touched{}, fmt.Errorf("%w: cannot insert under a virtual node", ErrBadUpdate)
		}
		c := n.AppendChild(NewElement(op.Label, op.Text))
		return Touched{Fresh: c}, nil
	case OpDelete:
		if n.Parent == nil {
			return Touched{}, fmt.Errorf("%w: cannot delete the fragment root", ErrBadUpdate)
		}
		if len(n.VirtualNodes()) > 0 {
			return Touched{}, fmt.Errorf("%w: subtree contains virtual nodes; merge sub-fragments first", ErrBadUpdate)
		}
		parent := n.Parent
		i := childIndex(parent, n)
		parent.RemoveChild(n)
		return Touched{Dirty: parent, Removed: n, Index: i}, nil
	case OpSetText:
		if n.Virtual {
			return Touched{}, fmt.Errorf("%w: virtual nodes carry no text", ErrBadUpdate)
		}
		old := n.Text
		n.Text = op.Text
		return Touched{Dirty: n, OldText: old}, nil
	default:
		return Touched{}, fmt.Errorf("%w: unknown op %d", ErrBadUpdate, op.Op)
	}
}

// Undo reverts the op that reported t: an insert loses its appended
// child, a delete puts the node back at its index, a setText gets its old
// text back. Undoing a batch's ops in reverse order restores the tree the
// batch started from.
func (t Touched) Undo() {
	switch {
	case t.Fresh != nil:
		t.Fresh.Parent.RemoveChild(t.Fresh)
	case t.Removed != nil:
		t.Dirty.InsertChild(t.Index, t.Removed)
	case t.Dirty != nil:
		t.Dirty.Text = t.OldText
	}
}

// AppendPath appends a counted child-index path.
func AppendPath(dst []byte, path []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(path)))
	for _, i := range path {
		dst = binary.AppendUvarint(dst, uint64(i))
	}
	return dst
}

// ReadPath reads a path written by AppendPath.
func ReadPath(r *wire.Reader) []int {
	path := make([]int, r.Count(1))
	for i := range path {
		path[i] = int(r.Uvarint())
	}
	return path
}

// AppendOp appends one op: kind byte, path, label, text.
func AppendOp(dst []byte, op UpdateOp) []byte {
	dst = append(dst, byte(op.Op))
	dst = AppendPath(dst, op.Path)
	dst = wire.AppendString(dst, op.Label)
	return wire.AppendString(dst, op.Text)
}

// AppendOps appends a counted op list.
func AppendOps(dst []byte, ops []UpdateOp) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		dst = AppendOp(dst, op)
	}
	return dst
}

// ReadOps reads a list written by AppendOps.
func ReadOps(r *wire.Reader) []UpdateOp {
	// An op spends four bytes on itself: kind, path length, label
	// length, text length.
	ops := make([]UpdateOp, r.Count(4))
	for i := range ops {
		op := UpdateOp{Op: OpKind(r.Byte())}
		op.Path = ReadPath(r)
		op.Label = r.String()
		op.Text = r.String()
		ops[i] = op
	}
	return ops
}

// DecodeOps decodes a buffer holding exactly one AppendOps list; errors
// wrap ErrBadUpdate.
func DecodeOps(buf []byte) ([]UpdateOp, error) {
	r := wire.NewReader(buf, ErrBadUpdate)
	ops := ReadOps(&r)
	return ops, r.Done()
}
