package obs

import (
	"encoding/binary"
	"errors"
	"math/rand/v2"

	"repro/internal/wire"
)

// Attr is one integer-valued span attribute (lane index, step count,
// cache hits…). Keeping values integral keeps the wire codec compact
// and allocation-light.
type Attr struct {
	Key string
	Val int64
}

// Span is one timed operation inside a query's trace. Spans form a
// tree through Parent; the tree — parent/child structure plus
// durations — is the contract. Start is the recording machine's
// UnixNano, so absolute offsets between spans recorded on different
// machines are subject to clock skew (durations are not).
type Span struct {
	TraceID uint64
	ID      uint64
	Parent  uint64 // 0 = root of its trace
	Site    string
	Name    string
	Start   int64 // UnixNano on the recording machine
	Dur     int64 // nanoseconds
	Attrs   []Attr
}

// Attr returns the value of the named attribute and whether it is set.
func (s Span) Attr(key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// NewTraceID returns a random non-zero trace ID. Zero means "tracing
// off" on the wire, so it is never issued.
func NewTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() uint64 { return NewTraceID() }

// Decode limits: a response frame may piggyback at most maxWireSpans
// spans, and strings/attribute lists are individually bounded, so a
// hostile frame cannot balloon the decoder.
const (
	maxWireSpans    = 4096
	maxWireSpanStr  = 256
	maxWireSpanAttr = 64
)

// EncodeSpans appends a compact uvarint framing of spans to dst:
//
//	uvarint count
//	per span: uvarint traceID, id, parent,
//	          uvarint len+site, uvarint len+name,
//	          uvarint start, uvarint dur,
//	          uvarint nattrs, per attr: uvarint len+key, varint val
func EncodeSpans(dst []byte, spans []Span) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(spans)))
	for _, s := range spans {
		dst = binary.AppendUvarint(dst, s.TraceID)
		dst = binary.AppendUvarint(dst, s.ID)
		dst = binary.AppendUvarint(dst, s.Parent)
		dst = wire.AppendString(dst, s.Site)
		dst = wire.AppendString(dst, s.Name)
		dst = binary.AppendUvarint(dst, uint64(s.Start))
		dst = binary.AppendUvarint(dst, uint64(s.Dur))
		dst = binary.AppendUvarint(dst, uint64(len(s.Attrs)))
		for _, a := range s.Attrs {
			dst = wire.AppendString(dst, a.Key)
			dst = binary.AppendVarint(dst, a.Val)
		}
	}
	return dst
}

var errSpanDecode = errors.New("obs: malformed span encoding")

// spanString reads a string field, bounded like every span string.
func spanString(r *wire.Reader) string {
	b := r.Bytes()
	if len(b) > maxWireSpanStr {
		r.Fail("string of %d bytes", len(b))
	}
	return string(b)
}

// DecodeSpans decodes an EncodeSpans buffer. It returns the spans and
// the number of bytes consumed.
func DecodeSpans(buf []byte) ([]Span, int, error) {
	r := wire.NewReader(buf, errSpanDecode)
	// A span spends eight bytes on itself, an attribute two.
	n := r.Count(8)
	if n > maxWireSpans {
		r.Fail("%d spans", n)
	}
	var spans []Span
	if n > 0 && r.Err() == nil {
		spans = make([]Span, n)
	}
	for i := range spans {
		s := &spans[i]
		s.TraceID, s.ID, s.Parent = r.Uvarint(), r.Uvarint(), r.Uvarint()
		s.Site, s.Name = spanString(&r), spanString(&r)
		s.Start, s.Dur = int64(r.Uvarint()), int64(r.Uvarint())
		na := r.Count(2)
		if na > maxWireSpanAttr {
			r.Fail("%d attributes", na)
		} else if na > 0 {
			s.Attrs = make([]Attr, na)
		}
		for j := range s.Attrs {
			s.Attrs[j].Key = spanString(&r)
			s.Attrs[j].Val = r.Varint()
		}
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return spans, r.Offset(), nil
}
