package wire

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

var errBad = errors.New("test: bad payload")

func TestReaderReadsWhatTheHelpersAppend(t *testing.T) {
	buf := []byte{7}
	buf = binary.AppendUvarint(buf, 1<<40)
	buf = binary.AppendVarint(buf, -3)
	buf = AppendBytes(buf, []byte("abc"))
	buf = AppendString(buf, "né")
	buf = AppendBytes(buf, nil)
	buf = append(buf, "tail"...)

	r := NewReader(buf, errBad)
	if b := r.Byte(); b != 7 {
		t.Errorf("Byte = %d", b)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -3 {
		t.Errorf("Varint = %d", v)
	}
	b := r.Bytes()
	if string(b) != "abc" || &b[0] != &buf[r.Offset()-3] {
		t.Errorf("Bytes = %q, want an alias of the input", b)
	}
	if cap(b) != len(b) {
		t.Errorf("Bytes result has spare capacity %d: an append would clobber the input", cap(b)-len(b))
	}
	if s := r.String(); s != "né" {
		t.Errorf("String = %q", s)
	}
	if b := r.Bytes(); len(b) != 0 {
		t.Errorf("empty Bytes = %q", b)
	}
	if r.Len() != 4 || r.Offset() != len(buf)-4 {
		t.Errorf("Len/Offset = %d/%d", r.Len(), r.Offset())
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if rest := r.Rest(); string(rest) != "tail" {
		t.Errorf("Rest = %q", rest)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderErrorIsStickyAndWrapsTheSentinel(t *testing.T) {
	r := NewReader([]byte{5, 'a', 'b'}, errBad) // length 5, two bytes left
	if b := r.Bytes(); b != nil {
		t.Errorf("overrunning Bytes = %q", b)
	}
	first := r.Err()
	if !errors.Is(first, errBad) {
		t.Fatalf("error %v does not wrap the sentinel", first)
	}
	// Every later read is a zero that consumes nothing and keeps the
	// first error.
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.Bytes() != nil || r.String() != "" || r.Count(1) != 0 || len(r.Rest()) != 0 {
		t.Error("a failed reader returned a non-zero value")
	}
	r.Fail("later complaint")
	if r.Err() != first || r.Done() != first {
		t.Errorf("first error not kept: %v / %v", r.Err(), r.Done())
	}

	for name, buf := range map[string][]byte{
		"empty":            {},
		"torn uvarint":     {0x80},
		"overlong uvarint": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		r := NewReader(buf, errBad)
		if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), errBad) {
			t.Errorf("%s: Uvarint = %d, err %v", name, v, r.Err())
		}
	}

	r = NewReader([]byte{1, 2}, errBad)
	r.Byte()
	if err := r.Done(); !errors.Is(err, errBad) || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Errorf("Done with input left = %v", err)
	}

	r = NewReader([]byte{9}, errBad)
	r.Fail("kind %d unknown", r.Byte())
	if err := r.Done(); !errors.Is(err, errBad) || !strings.Contains(err.Error(), "kind 9 unknown") {
		t.Errorf("Fail = %v", err)
	}
}

func TestCountBoundsElementsByTheInput(t *testing.T) {
	// Four bytes follow the count: room for four 1-byte or two 2-byte
	// elements, never five or three.
	for _, c := range []struct {
		n, min byte
		ok     bool
	}{{4, 1, true}, {5, 1, false}, {2, 2, true}, {3, 2, false}, {0, 8, true}, {1, 5, false}} {
		r := NewReader([]byte{c.n, 0, 0, 0, 0}, errBad)
		got := r.Count(int(c.min))
		if c.ok && (got != int(c.n) || r.Err() != nil) {
			t.Errorf("Count(%d) of %d = %d, %v", c.min, c.n, got, r.Err())
		}
		if !c.ok && (got != 0 || !errors.Is(r.Err(), errBad)) {
			t.Errorf("Count(%d) of %d accepted: %d, %v", c.min, c.n, got, r.Err())
		}
	}
	// A count too large for an int is refused, not wrapped around.
	r := NewReader(binary.AppendUvarint(nil, 1<<63), errBad)
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Errorf("Count of 2^63 = %d, %v", n, r.Err())
	}
}

// TestCountBudgetIsSharedAcrossNesting: nested counts that each claim all
// the remaining input — the shape that made a tree decoder allocate
// quadratically — run out of the reader-wide budget after promising
// len(input) bytes in total.
func TestCountBudgetIsSharedAcrossNesting(t *testing.T) {
	const size = 1 << 10
	buf := make([]byte, 0, size)
	for len(buf) < size-4 {
		buf = binary.AppendUvarint(buf, uint64(size-len(buf)-2)) // "all that is left"
	}
	buf = append(buf, make([]byte, size-len(buf))...)
	r := NewReader(buf, errBad)
	promised := 0
	for r.Err() == nil {
		promised += r.Count(1)
	}
	if promised > size {
		t.Errorf("nested counts were promised %d elements from %d bytes", promised, size)
	}
	if !errors.Is(r.Err(), errBad) {
		t.Errorf("budget exhaustion reported as %v", r.Err())
	}

	// Well-formed nesting — every element's own bytes claimed once — is
	// never refused: a list of lists of one-byte items.
	var ok []byte
	ok = append(ok, 3)
	for i := 0; i < 3; i++ {
		ok = append(ok, 2, 'x', 'y')
	}
	r = NewReader(ok, errBad)
	for i, n := 0, r.Count(1); i < n; i++ {
		for j, m := 0, r.Count(1); j < m; j++ {
			r.Byte()
		}
	}
	if err := r.Done(); err != nil {
		t.Errorf("well-formed nested counts refused: %v", err)
	}
}

func TestReaderDoesNotAllocate(t *testing.T) {
	buf := AppendString(AppendBytes([]byte{3, 1, 2, 3}, []byte("payload")), "s")
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(buf, errBad)
		for i, n := 0, r.Count(1); i < n; i++ {
			r.Uvarint()
		}
		r.Bytes()
		r.Bytes()
		if r.Done() != nil {
			t.Fatal(r.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("success path allocates %.0f times", allocs)
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		if got, want := UvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}
