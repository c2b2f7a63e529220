package eval

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// rejectedTriplets are encodings the decoder has always refused, one per
// bound it enforces. They seed FuzzDecodeTriplet and are asserted rejected
// on every run, so a decoder change cannot quietly start accepting them.
var rejectedTriplets = [][]byte{
	{},                          // empty
	{1, 0, 1, 0},                // truncated: DV vector missing
	{1, 0, 1, 0, 1, 0, 0},       // trailing byte
	{1, 0, 2, 0, 0, 1, 0},       // vectors disagree on arity
	{1, 9, 1, 0, 1, 0},          // unknown opcode
	{1, 2, 1, 7, 0, 1, 0, 1, 0}, // bad vector kind
	{1, 2, 1, 0, 1, 0},          // variable cut short
	{1, 4, 200, 1, 0, 1, 0},     // operand count exceeds remaining input
	{200, 1, 0, 1, 0, 1, 0},     // vector length exceeds buffer
	append(append([]byte{1}, bytes.Repeat([]byte{3}, 1<<13+1)...), 0, 1, 0, 1, 0), // nesting past the depth bound
}

// FuzzDecodeTriplet drives the triplet wire decoder (the path every
// evalQual response crosses) with arbitrary bytes: no panics, decoding into
// a fresh arena and into an already-populated shared one accept and reject
// alike, and for accepted input decode → encode → decode is a fixed point.
func FuzzDecodeTriplet(f *testing.F) {
	// Seed with genuine triplets: an all-constant fragment and one with
	// virtual nodes (variables on the wire).
	doc := xmltree.NewElement("a", "",
		xmltree.NewElement("b", "x"),
		xmltree.NewElement("c", "",
			xmltree.NewElement("b", "y")))
	prog := xpath.MustCompileString(`//b[text() = "x"] && //c`)
	if t, _, err := BottomUp(doc, prog); err == nil {
		f.Add(t.Encode())
	}
	virt := xmltree.NewElement("a", "",
		xmltree.NewElement("b", ""),
		xmltree.NewVirtual(1),
		xmltree.NewVirtual(2))
	var populated []byte
	if t, _, err := BottomUp(virt, prog); err == nil {
		populated = t.Encode()
		f.Add(populated)
	}
	f.Add([]byte{1, 0, 1, 0, 1, 0})
	for _, bad := range rejectedTriplets {
		if _, err := DecodeTriplet(bad); err == nil {
			f.Fatalf("DecodeTriplet accepted malformed seed % x", bad[:min(len(bad), 16)])
		}
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, errFresh := DecodeTriplet(data)
		shared := boolexpr.NewArena()
		if _, err := DecodeTripletInto(shared, populated); err != nil {
			t.Fatal(err)
		}
		into, errInto := DecodeTripletInto(shared, data)
		if (errFresh == nil) != (errInto == nil) {
			t.Fatalf("decoders disagree: fresh=%v shared=%v", errFresh, errInto)
		}
		if errFresh != nil {
			return
		}
		enc := fresh.Encode()
		if !bytes.Equal(enc, into.Encode()) {
			t.Fatal("shared-arena decode differs from fresh decode")
		}
		again, err := DecodeTriplet(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) || !fresh.Equal(again) {
			t.Fatal("decode → encode → decode is not a fixed point")
		}
	})
}

// FuzzFusedBottomUp is the differential fuzzer for the fused lane kernel:
// an arbitrary (tree, fragmentation, query batch) triple must evaluate to
// exactly the same triplets through the word-parallel kernel (BottomUp) as
// through the scalar per-lane loop (BottomUpPerLane) — same step counts,
// entry-wise equal vectors — and the solved triplets must give, at every
// fragment root, the answer of every batch query that EvalRaw gives at
// that node of the unsplit tree.
func FuzzFusedBottomUp(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(2))
	f.Add(int64(7), uint8(120), uint8(8), uint8(10))
	f.Add(int64(42), uint8(5), uint8(0), uint8(40)) // lanes past one word
	f.Add(int64(-9), uint8(200), uint8(12), uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, nodesRaw, splitRaw, queriesRaw uint8) {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(nodesRaw)})
		_, twin := twins(tree)
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%14)); err != nil {
			t.Skip()
		}
		b := xpath.NewBatchBuilder()
		exprs := make([]xpath.Expr, 1+int(queriesRaw)%48)
		for i := range exprs {
			exprs[i] = xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true, MaxDepth: 4, MaxSteps: 6})
			b.Add(exprs[i])
		}
		prog, roots := b.Program()
		if err := prog.Validate(); err != nil {
			t.Fatalf("batch program invalid: %v", err)
		}
		triplets := make(map[xmltree.FragmentID]Triplet, forest.Count())
		for _, id := range forest.IDs() {
			fr, _ := forest.Fragment(id)
			fused, fusedSteps, err := BottomUp(fr.Root, prog)
			if err != nil {
				t.Fatalf("fragment %d fused: %v", id, err)
			}
			lane, laneSteps, err := BottomUpPerLane(fr.Root, prog)
			if err != nil {
				t.Fatalf("fragment %d per-lane: %v", id, err)
			}
			if fusedSteps != laneSteps {
				t.Fatalf("fragment %d: fused %d steps, per-lane %d", id, fusedSteps, laneSteps)
			}
			if !fused.Equal(lane) {
				t.Fatalf("fragment %d: fused kernel diverges from per-lane evaluator (%d lanes)\n%s",
					id, len(prog.Subs), prog)
			}
			triplets[id] = fused
		}
		if msg := oracleMismatch(forest, triplets, prog, exprs, roots, twin); msg != "" {
			t.Fatal(msg)
		}
	})
}
