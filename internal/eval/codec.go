package eval

import (
	"fmt"

	"repro/internal/boolexpr"
)

// Encode serializes the triplet as its three formula vectors, V then CV
// then DV. The byte length is exactly what a participating site pays to
// ship its partial answer to the coordinator. The buffer is presized via
// EncodedSize, so encoding performs exactly one allocation.
func (t Triplet) Encode() []byte {
	return t.AppendEncoded(make([]byte, 0, t.EncodedSize()))
}

// AppendEncoded appends the wire encoding of the triplet to dst, for
// callers batching several triplets into one pooled message buffer.
func (t Triplet) AppendEncoded(dst []byte) []byte {
	dst = t.A.AppendEncodedVector(dst, t.V)
	dst = t.A.AppendEncodedVector(dst, t.CV)
	return t.A.AppendEncodedVector(dst, t.DV)
}

// EncodedSize returns len(Encode()) without building the buffer, cheaply
// enough for accounting and presizing.
func (t Triplet) EncodedSize() int {
	return t.A.EncodedSizeVector(t.V) + t.A.EncodedSizeVector(t.CV) + t.A.EncodedSizeVector(t.DV)
}

// DecodeTriplet parses a triplet produced by Encode into a fresh arena of
// its own, requiring all three vectors to have the same arity.
func DecodeTriplet(buf []byte) (Triplet, error) {
	return DecodeTripletInto(boolexpr.NewArena(), buf)
}

// DecodeTripletInto is DecodeTriplet interning into the caller's arena:
// every formula is hash-consed on arrival, so triplets decoded from many
// sites into one coordinator arena share their common subformulas, compare
// by id, and solve in place with no copying. Not safe for concurrent use
// of one arena — a coordinator decodes a round's triplets serially.
func DecodeTripletInto(a *boolexpr.Arena, buf []byte) (Triplet, error) {
	d := boolexpr.NewDecoder(buf)
	t := Triplet{A: a}
	var err error
	if t.V, err = d.DecodeVectorID(a); err != nil {
		return Triplet{}, fmt.Errorf("eval: triplet V: %w", err)
	}
	if t.CV, err = d.DecodeVectorID(a); err != nil {
		return Triplet{}, fmt.Errorf("eval: triplet CV: %w", err)
	}
	if t.DV, err = d.DecodeVectorID(a); err != nil {
		return Triplet{}, fmt.Errorf("eval: triplet DV: %w", err)
	}
	if err := d.Done(); err != nil {
		return Triplet{}, fmt.Errorf("eval: triplet: %w", err)
	}
	if len(t.CV) != len(t.V) || len(t.DV) != len(t.V) {
		return Triplet{}, fmt.Errorf("eval: triplet: %w: vectors disagree on arity (%d/%d/%d)",
			boolexpr.ErrBadFormula, len(t.V), len(t.CV), len(t.DV))
	}
	return t, nil
}
