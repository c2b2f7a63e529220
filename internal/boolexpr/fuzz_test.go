package boolexpr

import (
	"bytes"
	"testing"
)

// fuzzSeeds are wire encodings of representative formulas (the shapes the
// codec tests exercise) plus malformed fragments, seeding the native fuzz
// targets below.
func fuzzSeeds() [][]byte {
	a := NewArena()
	v := func(frag int32, vec VecKind, q int32) NodeID {
		return a.Var(Var{Frag: frag, Vec: vec, Q: q})
	}
	formulas := []NodeID{
		IDFalse,
		IDTrue,
		v(0, VecV, 0),
		a.Not(v(3, VecDV, 2)),
		a.And2(v(1, VecV, 0), v(2, VecV, 0)),
		a.Or2(v(1, VecV, 0), a.Not(a.And2(v(2, VecDV, 1), v(3, VecV, 7)))),
		a.And(v(1, VecV, 0), a.Or2(v(2, VecCV, 1), v(2, VecCV, 2)), a.Not(v(4, VecV, 3))),
	}
	seeds := make([][]byte, 0, len(formulas)+4)
	for _, f := range formulas {
		seeds = append(seeds, a.AppendEncodedID(nil, f))
	}
	seeds = append(seeds,
		[]byte{},                          // empty
		[]byte{wireNot},                   // truncated NOT
		[]byte{wireAnd, 0xff, 0xff},       // absurd operand count
		bytes.Repeat([]byte{wireNot}, 64), // NOT chain
	)
	return seeds
}

// FuzzDecodeFormula drives the decoder with arbitrary bytes: it must never
// panic, must keep rejecting the malformed seeds, and for accepted input
// decode → encode → decode is a fixed point — the first decode normalizes
// (hostile input may be unnormalized), after which bytes and formula are
// stable.
func FuzzDecodeFormula(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	for _, bad := range [][]byte{{}, {wireNot}, {wireAnd, 0xff, 0xff}} {
		if _, _, err := decodeOne(bad); err == nil {
			f.Fatalf("decoder accepted malformed seed % x", bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, first, err := decodeOne(data)
		if err != nil {
			return
		}
		enc := a.AppendEncodedID(nil, first)
		b, again, err := decodeOne(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if a.String(first) != b.String(again) {
			t.Fatalf("round trip changed the formula: %s vs %s", a.String(first), b.String(again))
		}
		if !bytes.Equal(b.AppendEncodedID(nil, again), enc) {
			t.Fatalf("re-encoding %s is not stable", b.String(again))
		}
	})
}
