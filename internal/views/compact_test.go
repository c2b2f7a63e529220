package views

import (
	"context"
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/xpath"
)

// TestArenaCompactionKeepsViewConsistent: maintenance operations after a
// compaction must keep working on valid ids. The arena is inflated past
// the compaction threshold with junk nodes (simulating a long-lived view's
// accumulated garbage), then updates and a split/merge cycle run — each
// public operation compacts at most once, at its start, so every id it
// stores belongs to the post-compaction arena.
func TestArenaCompactionKeepsViewConsistent(t *testing.T) {
	c, forest, st := deploy(t)
	ctx := context.Background()
	prog := xpath.MustCompileString(`//stock[code = "GOOG" && sell = "376"]`)
	v, err := Materialize(ctx, c, "S0", st, prog)
	if err != nil {
		t.Fatal(err)
	}

	inflate := func() {
		v.mu.Lock()
		for i := 0; v.arena.Len() < eval.CompactAt; i++ {
			x := v.arena.Var(boolexpr.Var{Frag: 9000, Vec: boolexpr.VecV, Q: int32(i)})
			y := v.arena.Var(boolexpr.Var{Frag: 9001, Vec: boolexpr.VecDV, Q: int32(i)})
			v.arena.Or2(x, y)
		}
		v.mu.Unlock()
	}

	f3, _ := forest.Fragment(3)
	sell := f3.Root.FindAll("sell")[0]

	// Updates across a compaction boundary: flip true, compact, flip back.
	for round, price := range []string{"376", "373", "376"} {
		inflate()
		if _, err := v.Update(ctx, 3, []UpdateOp{{Op: OpSetText, Path: PathOf(sell), Text: price}}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, want := v.Answer(), oracle(t, forest, prog); got != want {
			t.Fatalf("round %d: Answer = %v, oracle %v", round, got, want)
		}
		v.mu.Lock()
		if v.arena.Len() >= eval.CompactAt {
			t.Fatalf("round %d: arena not compacted (%d nodes)", round, v.arena.Len())
		}
		v.mu.Unlock()
	}

	// After a split the test-side forest no longer reflects the deployed
	// layout; the oracle becomes a fresh engine over the view's source
	// tree.
	engineOracle := func(label string) {
		t.Helper()
		eng := core.NewEngine(c, "S0", v.SourceTree(), c.Cost())
		rep, err := eng.ParBoX(ctx, prog)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if rep.Answer != v.Answer() {
			t.Fatalf("%s: view %v diverged from fresh evaluation %v", label, v.Answer(), rep.Answer)
		}
	}

	// A split decodes TWO triplets in one operation; with the arena at the
	// threshold both must land in the same (post-compaction) arena.
	inflate()
	f1, _ := forest.Fragment(1)
	target := f1.Root.Children[0]
	newID, _, err := v.Split(ctx, 1, PathOf(target), "S1")
	if err != nil {
		t.Fatal(err)
	}
	engineOracle("after split")
	// Updating after the split exercises Solve over the mix of
	// re-interned and freshly decoded triplets.
	inflate()
	if _, err := v.Update(ctx, 3, []UpdateOp{{Op: OpSetText, Path: PathOf(sell), Text: "373"}}); err != nil {
		t.Fatal(err)
	}
	engineOracle("after post-split update")

	inflate()
	if _, err := v.Merge(ctx, 1, newID); err != nil {
		t.Fatal(err)
	}
	if err := v.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	engineOracle("after merge+refresh")
}
