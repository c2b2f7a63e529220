package boolexpr

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// UvarintLen returns the encoded length of v as a uvarint, for callers
// presizing wire buffers that mix formula encodings with their own
// framing.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

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
		return 1 + UvarintLen(uint64(uint32(v.Frag))) + 1 + UvarintLen(uint64(uint32(v.Q)))
	case OpNot:
		return 1 + a.EncodedSizeID(NodeID(n.aux))
	case OpAnd, OpOr:
		s := 1 + UvarintLen(uint64(n.nkid))
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
	n := UvarintLen(uint64(len(ids)))
	for _, x := range ids {
		n += a.EncodedSizeID(x)
	}
	return n
}

// Decoder decodes a stream of concatenated formula encodings.
type Decoder struct {
	buf   []byte
	pos   int
	depth int
	// scratch stages the operands of AND/OR nodes, stack-disciplined
	// across the recursion, instead of one slice per node.
	scratch []NodeID
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining reports how many bytes have not been consumed yet.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrBadFormula, d.pos)
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrBadFormula, d.pos)
	}
	d.pos += n
	return v, nil
}

// DecodeID decodes the next formula from the stream, interning it into a.
func (d *Decoder) DecodeID(a *Arena) (NodeID, error) {
	op, err := d.byte()
	if err != nil {
		return IDFalse, err
	}
	if d.depth++; d.depth > maxDepth {
		return IDFalse, fmt.Errorf("%w: nesting depth exceeds %d", ErrBadFormula, maxDepth)
	}
	defer func() { d.depth-- }()
	switch op {
	case wireFalse:
		return IDFalse, nil
	case wireTrue:
		return IDTrue, nil
	case wireVar:
		frag, err := d.uvarint()
		if err != nil {
			return IDFalse, err
		}
		vec, err := d.byte()
		if err != nil {
			return IDFalse, err
		}
		if vec > byte(VecDV) {
			return IDFalse, fmt.Errorf("%w: bad vector kind %d", ErrBadFormula, vec)
		}
		q, err := d.uvarint()
		if err != nil {
			return IDFalse, err
		}
		return a.Var(Var{Frag: int32(uint32(frag)), Vec: VecKind(vec), Q: int32(uint32(q))}), nil
	case wireNot:
		k, err := d.DecodeID(a)
		if err != nil {
			return IDFalse, err
		}
		return a.Not(k), nil
	case wireAnd, wireOr:
		n, err := d.uvarint()
		if err != nil {
			return IDFalse, err
		}
		if n > maxOperands || n > uint64(d.Remaining()) {
			return IDFalse, fmt.Errorf("%w: operand count %d exceeds remaining input", ErrBadFormula, n)
		}
		// The recursion below pushes and pops its own frames above base.
		base := len(d.scratch)
		for i := uint64(0); i < n; i++ {
			k, err := d.DecodeID(a)
			if err != nil {
				d.scratch = d.scratch[:base]
				return IDFalse, err
			}
			d.scratch = append(d.scratch, k)
		}
		var id NodeID
		if op == wireAnd {
			id = a.And(d.scratch[base:]...)
		} else {
			id = a.Or(d.scratch[base:]...)
		}
		d.scratch = d.scratch[:base]
		return id, nil
	default:
		return IDFalse, fmt.Errorf("%w: unknown opcode %d at offset %d", ErrBadFormula, op, d.pos-1)
	}
}

// DecodeVectorID decodes a vector produced by AppendEncodedVector,
// interning every entry into a.
func (d *Decoder) DecodeVectorID(a *Arena) ([]NodeID, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining())+1 {
		return nil, fmt.Errorf("%w: vector length %d exceeds buffer", ErrBadFormula, n)
	}
	ids := make([]NodeID, n)
	for i := range ids {
		if ids[i], err = d.DecodeID(a); err != nil {
			return nil, fmt.Errorf("vector entry %d: %w", i, err)
		}
	}
	return ids, nil
}
