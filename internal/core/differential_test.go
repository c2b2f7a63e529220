package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestPropAlgorithmsMatchLegacyEvaluator is the end-to-end differential
// test of the bitset/arena rewrite: on random trees, random fragmentations
// and random QLists, the four paper algorithms — ParBoX, NaiveCentralized,
// FullDistParBoX and LazyParBoX, all now running on the two-plane
// evaluator — must each return the answer the preserved pointer-formula
// reference implementation (LegacyBottomUp + LegacySolve) computes for the
// same deployment.
func TestPropAlgorithmsMatchLegacyEvaluator(t *testing.T) {
	algos := []Algorithm{AlgoParBoX, AlgoNaiveCentralized, AlgoFullDist, AlgoLazy}
	ctx := context.Background()
	f := func(seed int64, sizeRaw, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(sizeRaw%60)})
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%8)); err != nil {
			return false
		}
		sites := []frag.SiteID{"S0", "S1", "S2"}
		assign := make(frag.Assignment)
		for _, id := range forest.IDs() {
			assign[id] = sites[r.Intn(len(sites))]
		}
		// The coordinator must store the root fragment for the local-read
		// path of NaiveCentralized.
		assign[forest.RootID()] = "S0"
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)

		// Reference answer: the legacy pointer-formula pipeline.
		legacyTriplets := make(map[xmltree.FragmentID]eval.LegacyTriplet, forest.Count())
		for _, id := range forest.IDs() {
			fr, _ := forest.Fragment(id)
			lt, _, err := eval.LegacyBottomUp(fr.Root, prog)
			if err != nil {
				return false
			}
			legacyTriplets[id] = lt
		}
		st, err := frag.BuildSourceTree(forest, assign)
		if err != nil {
			return false
		}
		want, _, err := eval.LegacySolve(st, legacyTriplets, prog)
		if err != nil {
			t.Logf("LegacySolve(%q): %v", q.String(), err)
			return false
		}

		c := cluster.New(cluster.DefaultCostModel())
		eng, err := Deploy(c, forest, assign)
		if err != nil {
			return false
		}
		for _, algo := range algos {
			rep, err := eng.Run(ctx, algo, prog)
			if err != nil {
				t.Logf("%s(%q): %v (seed %d)", algo, q.String(), err, seed)
				return false
			}
			if rep.Answer != want {
				t.Logf("%s(%q) = %v, legacy reference = %v (seed %d)", algo, q.String(), rep.Answer, want, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
