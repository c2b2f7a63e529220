package boolexpr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Algebraic laws, verified by exhaustive truth tables over the generator's
// variable universe. The constructors simplify, so the laws must hold for
// the *values*, not the shapes.

func TestPropDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		x, y := genID(r, a, 4), genID(r, a, 4)
		return equivalent(a, a.Not(a.And2(x, y)), a.Or2(a.Not(x), a.Not(y))) &&
			equivalent(a, a.Not(a.Or2(x, y)), a.And2(a.Not(x), a.Not(y)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropAssociativityCommutativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		x, y, z := genID(r, a, 3), genID(r, a, 3), genID(r, a, 3)
		return equivalent(a, a.And2(x, a.And2(y, z)), a.And2(a.And2(x, y), z)) &&
			equivalent(a, a.Or2(x, a.Or2(y, z)), a.Or2(a.Or2(x, y), z)) &&
			equivalent(a, a.And2(x, y), a.And2(y, x)) &&
			equivalent(a, a.Or2(x, y), a.Or2(y, x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropDistributivityAbsorption(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		x, y, z := genID(r, a, 3), genID(r, a, 3), genID(r, a, 3)
		return equivalent(a, a.And2(x, a.Or2(y, z)), a.Or2(a.And2(x, y), a.And2(x, z))) &&
			equivalent(a, a.Or2(x, a.And2(x, y)), x) &&
			equivalent(a, a.And2(x, a.Or2(x, y)), x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropDoubleNegationExcludedMiddle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		x := genID(r, a, 4)
		if a.Not(a.Not(x)) != x {
			return false
		}
		if v, ok := a.ConstValue(a.Or2(x, a.Not(x))); ok && !v {
			return false // if it folds, it must fold to true
		}
		return equivalent(a, a.Or2(x, a.Not(x)), IDTrue) &&
			equivalent(a, a.And2(x, a.Not(x)), IDFalse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropSubstComposition: substituting in two stages equals substituting
// the composed environment — the property that makes evalST's bottom-up
// order and LazyParBoX's incremental substitution interchangeable. Each
// environment gets its own generation, as Subst's memo requires.
func TestPropSubstComposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		x := genID(r, a, 5)
		full := genAssignment(r)
		first, second := make(assignment), make(assignment)
		for v, b := range full {
			if r.Intn(2) == 0 {
				first[v] = b
			} else {
				second[v] = b
			}
		}
		a.NewGen()
		mid := a.Subst(x, first.lookup(a))
		a.NewGen()
		staged := a.Subst(mid, second.lookup(a))
		a.NewGen()
		direct := a.Subst(x, full.lookup(a))
		sv, sok := a.ConstValue(staged)
		dv, dok := a.ConstValue(direct)
		return sok && dok && sv == dv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
