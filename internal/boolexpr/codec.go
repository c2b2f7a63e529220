package boolexpr

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Wire format: a pre-order bytecode. Each node is one opcode byte followed
// by its payload: Var carries (uvarint fragment, byte vector-kind,
// uvarint subquery index); NOT is followed by its operand; AND/OR carry a
// uvarint operand count followed by that many operands. The encoding is
// self-delimiting, so vectors of formulas can be concatenated; its exact
// byte length is what the cluster layer charges against the network cost
// model.
//
// The codec speaks arena ids only: the encoding is the one interchange
// form of a formula and the Arena the one compute form. Decoding
// hash-conses as it goes, so structurally equal formulas arriving from
// different sites intern to the same id.
const (
	wireFalse byte = 0
	wireTrue  byte = 1
	wireVar   byte = 2
	wireNot   byte = 3
	wireAnd   byte = 4
	wireOr    byte = 5
)

// maxOperands bounds the operand count a decoder will accept for one AND/OR
// node, to refuse absurd allocations from hostile input.
const maxOperands = 1 << 24

// maxDepth bounds the nesting depth a decoder will accept, so a hostile
// buffer of repeated NOT opcodes (each just one byte) cannot overflow the
// decoder's stack — the depth analogue of the maxOperands fan-out bound.
// Genuine triplet formulas are shallow: constructor folding collapses
// double negations and flattens nested AND/OR, so their depth is bounded by
// the QList size, far below this limit.
const maxDepth = 1 << 13

// ErrBadFormula is wrapped by all decoding failures.
var ErrBadFormula = errors.New("boolexpr: malformed formula encoding")

// AppendEncodedID appends the wire encoding of arena node x to dst.
func (a *Arena) AppendEncodedID(dst []byte, x NodeID) []byte {
	n := a.nodes[x]
	switch n.op {
	case OpFalse:
		return append(dst, wireFalse)
	case OpTrue:
		return append(dst, wireTrue)
	case OpVar:
		v := a.vars[n.aux]
		dst = append(dst, wireVar)
		dst = binary.AppendUvarint(dst, uint64(uint32(v.Frag)))
		dst = append(dst, byte(v.Vec))
		return binary.AppendUvarint(dst, uint64(uint32(v.Q)))
	case OpNot:
		dst = append(dst, wireNot)
		return a.AppendEncodedID(dst, NodeID(n.aux))
	case OpAnd, OpOr:
		op := wireAnd
		if n.op == OpOr {
			op = wireOr
		}
		dst = append(dst, op)
		dst = binary.AppendUvarint(dst, uint64(n.nkid))
		for _, k := range a.kids[n.aux : n.aux+n.nkid] {
			dst = a.AppendEncodedID(dst, k)
		}
		return dst
	default:
		panic(fmt.Sprintf("boolexpr: unknown Op %d", n.op))
	}
}

// EncodedSizeID returns the wire size of arena node x without allocating.
func (a *Arena) EncodedSizeID(x NodeID) int {
	n := a.nodes[x]
	switch n.op {
	case OpFalse, OpTrue:
		return 1
	case OpVar:
		v := a.vars[n.aux]
		return 1 + wire.UvarintLen(uint64(uint32(v.Frag))) + 1 + wire.UvarintLen(uint64(uint32(v.Q)))
	case OpNot:
		return 1 + a.EncodedSizeID(NodeID(n.aux))
	case OpAnd, OpOr:
		s := 1 + wire.UvarintLen(uint64(n.nkid))
		for _, k := range a.kids[n.aux : n.aux+n.nkid] {
			s += a.EncodedSizeID(k)
		}
		return s
	default:
		panic(fmt.Sprintf("boolexpr: unknown Op %d", n.op))
	}
}

// AppendEncodedVector appends a vector of formulas to dst: a uvarint count
// followed by the concatenated encodings.
func (a *Arena) AppendEncodedVector(dst []byte, ids []NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, x := range ids {
		dst = a.AppendEncodedID(dst, x)
	}
	return dst
}

// EncodedSizeVector returns the length AppendEncodedVector would add,
// without allocating, so callers on the wire path can presize their
// buffers exactly.
func (a *Arena) EncodedSizeVector(ids []NodeID) int {
	n := wire.UvarintLen(uint64(len(ids)))
	for _, x := range ids {
		n += a.EncodedSizeID(x)
	}
	return n
}

// Decoder decodes a stream of concatenated formula encodings.
type Decoder struct {
	r     wire.Reader
	depth int
	// scratch stages the operands of AND/OR nodes, stack-disciplined
	// across the recursion, instead of one slice per node.
	scratch []NodeID
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{r: wire.NewReader(buf, ErrBadFormula)} }

// Remaining reports how many bytes have not been consumed yet.
func (d *Decoder) Remaining() int { return d.r.Len() }

// Done returns the stream's first failure, or an error if bytes are left
// over.
func (d *Decoder) Done() error { return d.r.Done() }

// DecodeID decodes the next formula from the stream, interning it into a.
func (d *Decoder) DecodeID(a *Arena) (NodeID, error) {
	id := d.node(a)
	if err := d.r.Err(); err != nil {
		return IDFalse, err
	}
	return id, nil
}

// node decodes one formula. After a failure the reader yields zero bytes,
// which read as wireFalse, so the recursion unwinds on its own.
func (d *Decoder) node(a *Arena) NodeID {
	op := d.r.Byte()
	if d.depth++; d.depth > maxDepth {
		d.r.Fail("nesting depth exceeds %d", maxDepth)
	}
	defer func() { d.depth-- }()
	switch op {
	case wireFalse:
		return IDFalse
	case wireTrue:
		return IDTrue
	case wireVar:
		frag, vec, q := d.r.Uvarint(), d.r.Byte(), d.r.Uvarint()
		if vec > byte(VecDV) {
			d.r.Fail("bad vector kind %d", vec)
		}
		if d.r.Err() != nil {
			return IDFalse
		}
		return a.Var(Var{Frag: int32(uint32(frag)), Vec: VecKind(vec), Q: int32(uint32(q))})
	case wireNot:
		return a.Not(d.node(a))
	case wireAnd, wireOr:
		n := d.r.Count(1)
		if n > maxOperands {
			d.r.Fail("operand count %d exceeds %d", n, maxOperands)
		}
		// The recursion below pushes and pops its own frames above base.
		base := len(d.scratch)
		for i := 0; i < n && d.r.Err() == nil; i++ {
			d.scratch = append(d.scratch, d.node(a))
		}
		id := IDFalse
		if d.r.Err() == nil {
			if op == wireAnd {
				id = a.And(d.scratch[base:]...)
			} else {
				id = a.Or(d.scratch[base:]...)
			}
		}
		d.scratch = d.scratch[:base]
		return id
	default:
		d.r.Fail("unknown opcode %d at offset %d", op, d.r.Offset()-1)
		return IDFalse
	}
}

// DecodeVectorID decodes a vector produced by AppendEncodedVector,
// interning every entry into a.
func (d *Decoder) DecodeVectorID(a *Arena) ([]NodeID, error) {
	ids := make([]NodeID, d.r.Count(1))
	for i := 0; i < len(ids) && d.r.Err() == nil; i++ {
		ids[i] = d.node(a)
	}
	if err := d.r.Err(); err != nil {
		return nil, err
	}
	return ids, nil
}
