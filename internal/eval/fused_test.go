package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// randBatchProgram compiles 1..qMax random queries into one shared batch
// program, the fused multi-lane shape the kernel exists for.
func randBatchProgram(r *rand.Rand, qMax int) (*xpath.Program, []int32) {
	b := xpath.NewBatchBuilder()
	nq := 1 + r.Intn(qMax)
	for i := 0; i < nq; i++ {
		b.Add(xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true}))
	}
	return b.Program()
}

// TestPropFusedMatchesPerLane: over random fragmented documents and random
// BATCH programs, the fused-kernel BottomUp and the scalar per-lane
// BottomUpPerLane produce identical triplets (exact structural equality —
// the two paths differ only on the constant plane, where every entry is a
// decided boolean) and identical step counts; both agree with
// LegacyBottomUp up to logical equivalence.
func TestPropFusedMatchesPerLane(t *testing.T) {
	f := func(seed int64, sizeRaw, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(sizeRaw%80)})
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%10)); err != nil {
			return false
		}
		prog, _ := randBatchProgram(r, 6)
		for _, id := range forest.IDs() {
			fr, _ := forest.Fragment(id)
			fused, fusedSteps, err := BottomUp(fr.Root, prog)
			if err != nil {
				t.Logf("BottomUp(F%d): %v", id, err)
				return false
			}
			lane, laneSteps, err := BottomUpPerLane(fr.Root, prog)
			if err != nil {
				t.Logf("BottomUpPerLane(F%d): %v", id, err)
				return false
			}
			if fusedSteps != laneSteps {
				t.Logf("F%d steps: fused=%d per-lane=%d", id, fusedSteps, laneSteps)
				return false
			}
			if !fused.Equal(lane) {
				t.Logf("F%d triplets diverge (seed %d)\nprogram:\n%s", id, seed, prog)
				return false
			}
			legacy, _, err := LegacyBottomUp(fr.Root, prog)
			if err != nil {
				return false
			}
			if !equivalentTriplets(r, legacyOf(fused), legacy) {
				t.Logf("F%d fused vs legacy diverge (seed %d)", id, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestFusedMultiWordBatch drives the multi-word (lanes > 64) kernel path,
// which single queries never reach: 80 distinct subscriptions fused into
// one program, fused vs per-lane vs legacy on every fragment, and the
// solved batch answers must match per-query central evaluation.
func TestFusedMultiWordBatch(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 160, MaxChildren: 5})
	orig := tree.Clone()
	forest := frag.NewForest(tree)
	if err := forest.SplitRandom(r, 8); err != nil {
		t.Fatal(err)
	}
	assign := make(frag.Assignment)
	for _, id := range forest.IDs() {
		assign[id] = frag.SiteID("S0")
	}
	st, err := frag.BuildSourceTree(forest, assign)
	if err != nil {
		t.Fatal(err)
	}

	b := xpath.NewBatchBuilder()
	var exprs []xpath.Expr
	for b.Lanes() <= 130 {
		e := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true, MaxDepth: 4, MaxSteps: 6})
		exprs = append(exprs, e)
		b.Add(e)
	}
	prog, roots := b.Program()
	if len(prog.Subs) <= 64 {
		t.Fatalf("batch stayed single-word (%d lanes)", len(prog.Subs))
	}

	triplets := make(map[xmltree.FragmentID]Triplet, forest.Count())
	for _, id := range forest.IDs() {
		fr, _ := forest.Fragment(id)
		fused, fusedSteps, err := BottomUp(fr.Root, prog)
		if err != nil {
			t.Fatal(err)
		}
		lane, laneSteps, err := BottomUpPerLane(fr.Root, prog)
		if err != nil {
			t.Fatal(err)
		}
		if fusedSteps != laneSteps || !fused.Equal(lane) {
			t.Fatalf("fragment %d: fused and per-lane diverge on %d lanes", id, len(prog.Subs))
		}
		legacy, _, err := LegacyBottomUp(fr.Root, prog)
		if err != nil {
			t.Fatal(err)
		}
		if !equivalentTriplets(r, legacyOf(fused), legacy) {
			t.Fatalf("fragment %d: fused vs legacy diverge", id)
		}
		triplets[id] = fused
	}

	answers, _, err := SolveMulti(st, triplets, prog, roots)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exprs {
		single := xpath.Compile(e)
		want, _, err := Evaluate(orig, single)
		if err != nil {
			t.Fatal(err)
		}
		if answers[i] != want {
			t.Errorf("query %d (%q): batch=%v central=%v", i, e.String(), answers[i], want)
		}
	}
}

// TestBottomUpSteadyStateAllocs pins the pooled scratch: after a warm-up
// pass, repeated BottomUp over the same fragment runs with zero
// traversal allocations on the constant plane (the arena, scratch vectors
// and frame stack all come from pools).
func TestBottomUpSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under the race runtime")
	}
	r := rand.New(rand.NewSource(3))
	tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 300, MaxChildren: 4})
	b := xpath.NewBatchBuilder()
	for i := 0; i < 8; i++ {
		b.Add(xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true}))
	}
	prog, _ := b.Program()
	run := func() {
		tr, _, err := BottomUp(tree, prog)
		if err != nil {
			t.Fatal(err)
		}
		PutArena(tr.A)
	}
	run() // warm pools
	if allocs := testing.AllocsPerRun(30, run); allocs > 4 {
		t.Errorf("steady-state constant-plane BottomUp allocates %.0f objects per run, want ~0", allocs)
	}
}
