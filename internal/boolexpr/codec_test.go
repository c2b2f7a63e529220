package boolexpr

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// The codec speaks arena ids only; the tests build their inputs with the
// pointer constructors (the reference algebra) and cross the boundary with
// these three helpers.

// norm is f as the arena normalizes it: the pointer constructors dedupe
// only variable leaves, the arena every repeated operand.
func norm(f *Formula) *Formula {
	a := NewArena()
	return a.Export(a.Import(f, nil), nil)
}

// encode returns the wire encoding of f.
func encode(f *Formula) []byte {
	a := NewArena()
	return a.AppendEncodedID(nil, a.Import(f, nil))
}

// decodeOne decodes exactly one formula occupying the whole of buf.
func decodeOne(buf []byte) (*Formula, error) {
	a := NewArena()
	d := NewDecoder(buf)
	id, err := d.DecodeID(a)
	if err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormula, d.Remaining())
	}
	return a.Export(id, nil), nil
}

func TestCodecRoundTripBasics(t *testing.T) {
	x := NewVar(Var{Frag: 9, Vec: VecDV, Q: 300})
	y := NewVar(Var{Frag: 130, Vec: VecV, Q: 2})
	cases := []*Formula{
		True(), False(), x, y,
		Not(x),
		And(x, y), Or(x, Not(y)),
		Or(And(x, y), Not(And(x, Or(x, y)))),
	}
	for _, f := range cases {
		got, err := decodeOne(encode(f))
		if err != nil {
			t.Errorf("decodeOne(%v): %v", f, err)
			continue
		}
		if !got.Equal(norm(f)) {
			t.Errorf("round trip of %v = %v", f, got)
		}
	}
}

// TestPropCodecRoundTrip: decode(encode(f)) is structurally identical for
// every constructor-normal formula, EncodedSizeID matches the real length,
// and re-encoding the decoded formula reproduces the bytes.
func TestPropCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := genFormula(r, 6)
		a := NewArena()
		id := a.Import(g, nil)
		enc := a.AppendEncodedID(nil, id)
		if len(enc) != a.EncodedSizeID(id) {
			return false
		}
		got, err := decodeOne(enc)
		if err != nil {
			return false
		}
		return got.Equal(norm(g)) && bytes.Equal(encode(got), enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	fs := make([]*Formula, 17)
	a := NewArena()
	ids := make([]NodeID, len(fs))
	for i := range fs {
		fs[i] = genFormula(r, 4)
		ids[i] = a.Import(fs[i], nil)
	}
	enc := a.AppendEncodedVector(nil, ids)
	if len(enc) != a.EncodedSizeVector(ids) {
		t.Errorf("EncodedSizeVector %d != len %d", a.EncodedSizeVector(ids), len(enc))
	}
	b := NewArena()
	d := NewDecoder(enc)
	got, err := d.DecodeVectorID(b)
	if err != nil {
		t.Fatalf("DecodeVectorID: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("%d trailing bytes", d.Remaining())
	}
	if len(got) != len(fs) {
		t.Fatalf("got %d formulas, want %d", len(got), len(fs))
	}
	for i := range fs {
		if g := b.Export(got[i], nil); !g.Equal(norm(fs[i])) {
			t.Errorf("entry %d: got %v, want %v", i, g, fs[i])
		}
	}
}

func TestEmptyVector(t *testing.T) {
	a := NewArena()
	got, err := NewDecoder(a.AppendEncodedVector(nil, nil)).DecodeVectorID(a)
	if err != nil || len(got) != 0 {
		t.Errorf("empty vector round trip: %v, %v", got, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"unknown-opcode", []byte{99}},
		{"truncated-var", []byte{wireVar, 1}},
		{"bad-vec-kind", []byte{wireVar, 1, 7, 1}},
		{"truncated-not", []byte{wireNot}},
		{"and-count-too-big", []byte{wireAnd, 200, 1}},
		{"trailing-bytes", append(encode(True()), 1)},
		{"and-missing-operand", []byte{wireAnd, 2, wireTrue}},
	}
	for _, c := range cases {
		if _, err := decodeOne(c.buf); err == nil {
			t.Errorf("%s: decodeOne succeeded, want error", c.name)
		}
	}
}

func TestDecodeVectorErrors(t *testing.T) {
	// Length prefix larger than the buffer must be rejected up front.
	d := NewDecoder([]byte{200, 200, 200})
	if _, err := d.DecodeVectorID(NewArena()); err == nil {
		t.Error("oversized vector length accepted")
	}
}

func TestDecoderConcatenatedStream(t *testing.T) {
	x := NewVar(Var{Frag: 1, Vec: VecV, Q: 0})
	f := And(x, Not(NewVar(Var{Frag: 2, Vec: VecDV, Q: 3})))
	g := Or(x, True()) // folds to true
	buf := append(encode(f), encode(g)...)
	a := NewArena()
	d := NewDecoder(buf)
	g1, err := d.DecodeID(a)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := d.DecodeID(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Export(g1, nil).Equal(f) {
		t.Errorf("first formula: got %v, want %v", a.String(g1), f)
	}
	if g2 != IDTrue {
		t.Errorf("second formula: got %v, want true", a.String(g2))
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left", d.Remaining())
	}
}
