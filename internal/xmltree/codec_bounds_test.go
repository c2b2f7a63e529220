package xmltree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// hostileCounts builds a payload of nested element nodes in which every
// node claims claim(bytes left) children: each claim passes a check
// against the remaining input on its own, and only a decoder-wide budget
// keeps the child slices from adding up quadratically.
func hostileCounts(size int, claim func(left int) int) []byte {
	buf := make([]byte, 0, size)
	for len(buf) < size-8 {
		buf = append(buf, 0, 0, 0) // element, empty label, empty text
		buf = binary.AppendUvarint(buf, uint64(claim(size-len(buf)-3)))
	}
	return append(buf, make([]byte, size-len(buf))...)
}

// TestDecodeHostileChildCounts: total allocation must stay linear in the
// input. Before the shared budget a 64 KiB payload like this allocated
// 2.8 GB.
func TestDecodeHostileChildCounts(t *testing.T) {
	const size = 64 << 10
	for name, claim := range map[string]func(int) int{
		"every byte left":       func(left int) int { return left },
		"every node that fits":  func(left int) int { return left / minNodeBytes },
		"half of what is left":  func(left int) int { return left / (2 * minNodeBytes) },
		"a tenth of what fits":  func(left int) int { return left / (10 * minNodeBytes) },
		"sixteen at every node": func(int) int { return 16 },
	} {
		buf := hostileCounts(size, claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(buf)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadTree) {
			t.Errorf("%s: Decode = %v, want ErrBadTree", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64*size {
			t.Errorf("%s: rejecting a %d-byte payload allocated %d bytes (%d× its size)", name, size, got, got/size)
		}
	}
}

// TestDecodeDeepChain: a well-formed single-child chain a million nodes
// deep — 5 MB, far under the 64 MiB frame cap — must decode (or be refused
// with ErrBadTree), not overflow the goroutine stack, which no recover can
// catch. The stack limit is lowered so that a recursive decoder dies here
// rather than only at the 36 MiB chain that kills it under the default.
func TestDecodeDeepChain(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	const depth = 1_000_000
	buf := bytes.Repeat([]byte{0, 1, 'n', 0, 1}, depth)
	buf[len(buf)-1] = 0 // the last node is a leaf
	root, err := Decode(buf)
	if err != nil {
		if !errors.Is(err, ErrBadTree) {
			t.Fatalf("Decode = %v, want a tree or ErrBadTree", err)
		}
		return
	}
	got := 1
	for n := root; len(n.Children) == 1; n = n.Children[0] {
		if n.Children[0].Parent != n {
			t.Fatalf("node at depth %d has the wrong parent", got)
		}
		got++
	}
	if got != depth {
		t.Errorf("decoded a chain of %d nodes, want %d", got, depth)
	}
}

// TestDecodeLargeFragmentRoundTrips: the bounds leave a legitimate
// 10 000-node fragment alone, byte for byte.
func TestDecodeLargeFragmentRoundTrips(t *testing.T) {
	root := RandomTree(rand.New(rand.NewSource(23)), RandomSpec{Nodes: 10_000})
	for i, n := range root.FindAll(defaultLabels[0]) {
		if i%7 == 0 && len(n.Children) == 0 && n.Parent != nil {
			n.Parent.ReplaceChild(n, NewVirtual(FragmentID(i)))
		}
	}
	enc := Encode(root)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != root.Size() || !got.Equal(root) {
		t.Fatalf("decoded tree differs: %d nodes, want %d", got.Size(), root.Size())
	}
	if !bytes.Equal(Encode(got), enc) {
		t.Error("decode → encode is not byte-identical")
	}
}
