package xmltree

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestUndoRestoresTree: random op batches applied through ApplyTracked
// and undone newest first leave the tree Encode-byte-equal to where it
// started, with parent pointers intact; an op that fails changes nothing.
func TestUndoRestoresTree(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		root := RandomTree(r, RandomSpec{Nodes: 1 + r.Intn(30)})
		if r.Intn(2) == 0 {
			root.AppendChild(NewVirtual(9))
		}
		before := Encode(root)
		var applied []Touched
		for i := 0; i < 1+r.Intn(8); i++ {
			var all []*Node
			root.Walk(func(n *Node) { all = append(all, n) })
			op := UpdateOp{Op: OpKind(r.Intn(3)), Path: PathOf(all[r.Intn(len(all))]), Label: "n", Text: "t"}
			tch, err := op.ApplyTracked(root)
			if err != nil {
				continue
			}
			applied = append(applied, tch)
		}
		// A failing op, which must leave the tree as the batch left it.
		mid := Encode(root)
		if _, err := (UpdateOp{Op: OpSetText, Path: []int{len(root.Children)}}).ApplyTracked(root); err == nil {
			t.Fatal("an out-of-range path applied")
		}
		if !bytes.Equal(Encode(root), mid) {
			t.Fatalf("seed %d: a failing op changed the tree", seed)
		}
		for i := len(applied) - 1; i >= 0; i-- {
			applied[i].Undo()
		}
		if got := Encode(root); !bytes.Equal(got, before) {
			t.Fatalf("seed %d: %d ops undone, tree %s differs from the start", seed, len(applied), root)
		}
		if err := Validate(root); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestOpsCodecRoundTrip: DecodeOps reads back exactly what AppendOps
// wrote, and refuses trailing or truncated bytes with ErrBadUpdate.
func TestOpsCodecRoundTrip(t *testing.T) {
	ops := []UpdateOp{
		{Op: OpInsert, Path: []int{1, 0, 300}, Label: "stock", Text: "né"},
		{Op: OpDelete, Path: []int{}},
		{Op: OpSetText, Path: []int{2}, Text: "373"},
	}
	buf := AppendOps(nil, ops)
	got, err := DecodeOps(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(AppendOps(nil, got), buf) || len(got) != len(ops) {
		t.Fatalf("round trip = %+v, want %+v", got, ops)
	}
	for _, bad := range [][]byte{buf[:len(buf)-1], append(bytes.Clone(buf), 0)} {
		if _, err := DecodeOps(bad); err == nil {
			t.Errorf("DecodeOps(%x) accepted malformed input", bad)
		}
	}
}
