// Package wire is the one bounded reader every payload decoder in this
// repository goes through, plus the append helpers for the two framed
// primitives. A payload is a complete []byte — a request or response body,
// a WAL record body, a fragment or triplet encoding — made of uvarints,
// single bytes and length-prefixed byte strings. (The stream frame layer
// in internal/cluster reads a bufio.Reader and is not a payload.)
//
// The contract, relied on by every decoder:
//
//   - Sticky error. The first failure is kept; every later read returns
//     zero and consumes nothing, so a decoder reads all its fields
//     straight through and checks once, with Done. Loops stay bounded
//     after a failure because Count returns 0 on a failed reader.
//   - One sentinel. Every error a Reader reports wraps the sentinel its
//     owner passed to NewReader, so errors.Is(err, pkg.ErrBad…) holds
//     however deep the failing read was.
//   - Aliasing. Bytes and Rest return sub-slices of the input; String
//     copies. Callers that keep a Bytes result keep the input alive.
//   - Bounded counts. Count(min) refuses an element count the unread
//     input cannot hold at min bytes per element, and charges n×min to a
//     budget of len(input) shared by the whole Reader: as long as min
//     counts only the bytes an element spends on itself (not on elements
//     nested inside it), well-formed input never exhausts the budget,
//     while hostile nested counts — each claiming "all the remaining
//     bytes" — cannot make a decoder allocate more than a constant factor
//     of the input in total.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Reader decodes one payload. The zero value is not usable; see NewReader.
type Reader struct {
	buf    []byte
	pos    int
	budget int // bytes Count may still promise to elements
	err    error
	bad    error // the owner's sentinel; every failure wraps it
}

// NewReader returns a reader over buf whose errors all wrap sentinel.
func NewReader(buf []byte, sentinel error) Reader {
	return Reader{buf: buf, budget: len(buf), bad: sentinel}
}

// Fail records a failure the decoder itself detected (an unknown kind
// byte, an index out of range), wrapped like the reader's own. Only the
// first failure is kept.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.bad, fmt.Sprintf(format, args...))
	}
	// Nothing is left to read: every later read fails on its own bounds
	// check, with no error test on the success path.
	r.buf, r.pos = nil, 0
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len reports the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.pos }

// Offset reports how many bytes have been consumed.
func (r *Reader) Offset() int { return r.pos }

// Done returns the first failure, or an error if input is left over.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.pos)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.pos >= len(r.buf) {
		r.Fail("truncated at offset %d", r.pos)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 { // the common one-byte case
		r.pos++
		return uint64(r.buf[r.pos-1])
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail("bad uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail("bad varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Bytes reads a uvarint length and that many bytes, which alias the input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail("length %d exceeds the %d bytes left", n, r.Len())
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// String reads a length-prefixed string (a copy of the input bytes).
func (r *Reader) String() string { return string(r.Bytes()) }

// Rest consumes and returns everything unread, aliasing the input: the
// unframed tail some payloads end with.
func (r *Reader) Rest() []byte {
	b := r.buf[r.pos:]
	r.pos = len(r.buf)
	return b
}

// Count reads an element count and refuses one the input cannot hold at
// minBytes (≥ 1) per element; see the package comment for the budget.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(r.Len()/minBytes) || int(n)*minBytes > r.budget {
		r.Fail("count %d exceeds the %d bytes left", n, r.Len())
		return 0
	}
	r.budget -= int(n) * minBytes
	return int(n)
}

// AppendBytes appends b with a uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// UvarintLen returns the encoded length of v as a uvarint, for encoders
// that presize their buffers exactly.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
