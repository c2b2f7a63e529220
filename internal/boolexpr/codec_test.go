package boolexpr

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodeOne decodes exactly one formula occupying the whole of buf into a
// fresh arena.
func decodeOne(buf []byte) (*Arena, NodeID, error) {
	a := NewArena()
	d := NewDecoder(buf)
	id, err := d.DecodeID(a)
	if err != nil {
		return nil, IDFalse, err
	}
	if d.Remaining() != 0 {
		return nil, IDFalse, fmt.Errorf("%w: %d trailing bytes", ErrBadFormula, d.Remaining())
	}
	return a, id, nil
}

// roundTrips reports whether x of a survives encode → decode into a fresh
// arena with the same rendering and the same bytes.
func roundTrips(t *testing.T, a *Arena, x NodeID) bool {
	t.Helper()
	enc := a.AppendEncodedID(nil, x)
	if len(enc) != a.EncodedSizeID(x) {
		t.Logf("EncodedSizeID %d != len %d for %s", a.EncodedSizeID(x), len(enc), a.String(x))
		return false
	}
	b, got, err := decodeOne(enc)
	if err != nil {
		t.Logf("decodeOne(%s): %v", a.String(x), err)
		return false
	}
	if b.String(got) != a.String(x) || !bytes.Equal(b.AppendEncodedID(nil, got), enc) {
		t.Logf("round trip of %s = %s", a.String(x), b.String(got))
		return false
	}
	return true
}

func TestCodecRoundTripBasics(t *testing.T) {
	a := NewArena()
	x := a.Var(Var{Frag: 9, Vec: VecDV, Q: 300})
	y := a.Var(Var{Frag: 130, Vec: VecV, Q: 2})
	cases := []NodeID{
		IDTrue, IDFalse, x, y,
		a.Not(x),
		a.And2(x, y), a.Or2(x, a.Not(y)),
		a.Or2(a.And2(x, y), a.Not(a.And2(x, a.Or2(x, y)))),
	}
	for _, f := range cases {
		if !roundTrips(t, a, f) {
			t.Errorf("%s does not round-trip", a.String(f))
		}
	}
}

// TestPropCodecRoundTrip: decode(encode(f)) is structurally identical for
// every constructor-normal formula, EncodedSizeID matches the real length,
// and re-encoding the decoded formula reproduces the bytes.
func TestPropCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		a := NewArena()
		return roundTrips(t, a, genID(rand.New(rand.NewSource(seed)), a, 6))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	a := NewArena()
	ids := make([]NodeID, 17)
	for i := range ids {
		ids[i] = genID(r, a, 4)
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
	if len(got) != len(ids) {
		t.Fatalf("got %d formulas, want %d", len(got), len(ids))
	}
	for i := range ids {
		if b.String(got[i]) != a.String(ids[i]) {
			t.Errorf("entry %d: got %s, want %s", i, b.String(got[i]), a.String(ids[i]))
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
		{"trailing-bytes", []byte{wireTrue, 1}},
		{"and-missing-operand", []byte{wireAnd, 2, wireTrue}},
	}
	for _, c := range cases {
		if _, _, err := decodeOne(c.buf); err == nil {
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
	a := NewArena()
	x := a.Var(Var{Frag: 1, Vec: VecV, Q: 0})
	f := a.And2(x, a.Not(a.Var(Var{Frag: 2, Vec: VecDV, Q: 3})))
	g := a.Or2(x, IDTrue) // folds to true
	buf := a.AppendEncodedID(a.AppendEncodedID(nil, f), g)
	b := NewArena()
	d := NewDecoder(buf)
	g1, err := d.DecodeID(b)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := d.DecodeID(b)
	if err != nil {
		t.Fatal(err)
	}
	if b.String(g1) != a.String(f) {
		t.Errorf("first formula: got %s, want %s", b.String(g1), a.String(f))
	}
	if g2 != IDTrue {
		t.Errorf("second formula: got %s, want true", b.String(g2))
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left", d.Remaining())
	}
}
