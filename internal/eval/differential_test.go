package eval

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/boolexpr"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The differential property tests of the perf rewrite: the bitset/arena
// evaluator (BottomUp, Solve) must agree with the preserved pointer-formula
// reference implementation (LegacyBottomUp, LegacySolve) on random trees,
// random fragmentations and random QLists. Structural identity of the
// produced formulas is NOT required (the arena may normalize operand lists
// differently); logical equivalence is, and is checked per entry.

// equivalentFormulas reports logical equivalence of two formulas: equal
// constants, or agreement under a battery of assignments over their
// combined variables (exhaustive up to 10 variables, randomized above).
func equivalentFormulas(r *rand.Rand, f, g *boolexpr.Formula) bool {
	fv, fok := f.ConstValue()
	gv, gok := g.ConstValue()
	if fok || gok {
		return fok && gok && fv == gv
	}
	seen := make(map[boolexpr.Var]bool)
	var vars []boolexpr.Var
	for _, h := range []*boolexpr.Formula{f, g} {
		for _, v := range h.VarSet() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	check := func(env boolexpr.Assignment) bool {
		return f.Eval(env.Total) == g.Eval(env.Total)
	}
	if len(vars) <= 10 {
		for mask := 0; mask < 1<<len(vars); mask++ {
			env := make(boolexpr.Assignment, len(vars))
			for i, v := range vars {
				env[v] = mask&(1<<i) != 0
			}
			if !check(env) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 64; trial++ {
		env := make(boolexpr.Assignment, len(vars))
		for _, v := range vars {
			env[v] = r.Intn(2) == 0
		}
		if !check(env) {
			return false
		}
	}
	return true
}

func equivalentTriplets(r *rand.Rand, t, u LegacyTriplet) bool {
	eq := func(a, b []*boolexpr.Formula) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !equivalentFormulas(r, a[i], b[i]) {
				return false
			}
		}
		return true
	}
	return eq(t.V, u.V) && eq(t.CV, u.CV) && eq(t.DV, u.DV)
}

// TestPropBottomUpMatchesLegacy: on every fragment of a random
// fragmentation, the two-plane BottomUp and the pointer LegacyBottomUp
// produce logically equivalent triplets and identical step counts.
func TestPropBottomUpMatchesLegacy(t *testing.T) {
	f := func(seed int64, sizeRaw, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(sizeRaw%80)})
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%10)); err != nil {
			return false
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)
		for _, id := range forest.IDs() {
			fr, _ := forest.Fragment(id)
			got, gotSteps, err := BottomUp(fr.Root, prog)
			if err != nil {
				t.Logf("BottomUp(F%d): %v", id, err)
				return false
			}
			want, wantSteps, err := LegacyBottomUp(fr.Root, prog)
			if err != nil {
				t.Logf("LegacyBottomUp(F%d): %v", id, err)
				return false
			}
			if gotSteps != wantSteps {
				t.Logf("F%d steps: arena=%d legacy=%d (query %q)", id, gotSteps, wantSteps, q.String())
				return false
			}
			if !equivalentTriplets(r, legacyOf(got), want) {
				t.Logf("F%d triplets diverge (query %q, seed %d)", id, q.String(), seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropSolveMatchesLegacy: the memoized arena solve agrees with the
// reference per-entry substitution on the full pipeline — and both agree
// with centralized evaluation of the unfragmented tree.
func TestPropSolveMatchesLegacy(t *testing.T) {
	f := func(seed int64, sizeRaw, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(sizeRaw%80)})
		orig := tree.Clone()
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%12)); err != nil {
			return false
		}
		sites := []frag.SiteID{"S0", "S1", "S2", "S3"}
		assign := make(frag.Assignment)
		for _, id := range forest.IDs() {
			assign[id] = sites[r.Intn(len(sites))]
		}
		st, err := frag.BuildSourceTree(forest, assign)
		if err != nil {
			return false
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)

		newTriplets, _, err := EvaluateAll(forest, prog)
		if err != nil {
			return false
		}
		legacyTriplets := make(map[xmltree.FragmentID]LegacyTriplet, forest.Count())
		for _, id := range forest.IDs() {
			fr, _ := forest.Fragment(id)
			lt, _, err := LegacyBottomUp(fr.Root, prog)
			if err != nil {
				return false
			}
			legacyTriplets[id] = lt
		}

		got, _, err := Solve(st, newTriplets, prog)
		if err != nil {
			t.Logf("Solve(%q): %v", q.String(), err)
			return false
		}
		want, _, err := LegacySolve(st, legacyTriplets, prog)
		if err != nil {
			t.Logf("LegacySolve(%q): %v", q.String(), err)
			return false
		}
		central, _, err := Evaluate(orig, prog)
		if err != nil {
			return false
		}
		if got != want || got != central {
			t.Logf("query %q: arena=%v legacy=%v central=%v (seed %d)", q.String(), got, want, central, seed)
			return false
		}
		// Cross-wiring must also hold: legacy triplets through the arena
		// solve and arena triplets through the legacy solve.
		cross1, _, err := Solve(st, tripletOfAll(legacyTriplets), prog)
		if err != nil || cross1 != want {
			t.Logf("query %q: Solve over legacy triplets = %v/%v, want %v", q.String(), cross1, err, want)
			return false
		}
		cross2, _, err := LegacySolve(st, legacyOfAll(newTriplets), prog)
		if err != nil || cross2 != want {
			t.Logf("query %q: LegacySolve over arena triplets = %v/%v, want %v", q.String(), cross2, err, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestPropTripletWireCompat: a triplet encoded from the evaluator decodes
// to a structurally equal triplet — into a fresh arena and into a shared
// one alike — and re-encodes to the same bytes: decode → encode is the
// identity on everything a site ships.
func TestPropTripletWireCompat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 40})
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 5); err != nil {
			return false
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)
		shared := boolexpr.NewArena()
		for _, id := range forest.IDs() {
			fr, _ := forest.Fragment(id)
			tr, _, err := BottomUp(fr.Root, prog)
			if err != nil {
				return false
			}
			enc := tr.Encode()
			if len(enc) != tr.EncodedSize() {
				t.Logf("EncodedSize %d != len %d", tr.EncodedSize(), len(enc))
				return false
			}
			own, err := DecodeTriplet(enc)
			if err != nil || !own.Equal(tr) || !equalLegacy(legacyOf(own), legacyOf(tr)) {
				return false
			}
			at, err := DecodeTripletInto(shared, enc)
			if err != nil {
				return false
			}
			if !bytes.Equal(at.Encode(), enc) || !equalLegacy(legacyOf(at), legacyOf(tr)) {
				t.Logf("shared-arena decode diverges (seed %d)", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
