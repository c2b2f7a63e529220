package boolexpr

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// randFormula builds a random pointer formula over a small variable pool,
// exercising every constructor.
func randFormula(r *rand.Rand, depth int) *Formula {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Const(r.Intn(2) == 0)
		default:
			return NewVar(Var{Frag: int32(r.Intn(3)), Vec: VecKind(r.Intn(2) * 2), Q: int32(r.Intn(4))})
		}
	}
	switch r.Intn(3) {
	case 0:
		return Not(randFormula(r, depth-1))
	case 1:
		return And(randFormula(r, depth-1), randFormula(r, depth-1))
	default:
		return Or(randFormula(r, depth-1), randFormula(r, depth-1))
	}
}

// randBuildID replays the construction of f inside the arena through the
// arena's own constructors (not Import), checking constructor parity.
func randBuildID(a *Arena, f *Formula) NodeID {
	switch f.op {
	case OpFalse:
		return IDFalse
	case OpTrue:
		return IDTrue
	case OpVar:
		return a.Var(f.v)
	case OpNot:
		return a.Not(randBuildID(a, f.kids[0]))
	case OpAnd, OpOr:
		ks := make([]NodeID, len(f.kids))
		for i, k := range f.kids {
			ks[i] = randBuildID(a, k)
		}
		if f.op == OpAnd {
			return a.And(ks...)
		}
		return a.Or(ks...)
	default:
		panic("unreachable")
	}
}

// TestArenaHashConsing: building the same structure twice yields the same
// id — the O(1) structural equality the evaluator and view layer rely on.
func TestArenaHashConsing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randFormula(r, 4)
		a := NewArena()
		id1 := randBuildID(a, g)
		id2 := randBuildID(a, g)
		if id1 != id2 {
			t.Logf("same build, different ids: %d vs %d for %v", id1, id2, g)
			return false
		}
		// Import must agree with direct construction too.
		if id3 := a.Import(g, nil); id3 != id1 {
			t.Logf("Import id %d != constructor id %d for %v", id3, id1, g)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestArenaExportEquivalence: Export inverts Import up to logical
// equivalence (the arena may normalize operand lists), verified by
// exhaustive evaluation over the variable set.
func TestArenaExportEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randFormula(r, 4)
		a := NewArena()
		back := a.Export(a.Import(g, nil), nil)
		vars := g.VarSet()
		for _, v := range back.VarSet() {
			found := false
			for _, w := range vars {
				if v == w {
					found = true
					break
				}
			}
			if !found {
				vars = append(vars, v)
			}
		}
		if len(vars) > 12 {
			return true // skip pathological variable explosions
		}
		for mask := 0; mask < 1<<len(vars); mask++ {
			env := make(Assignment, len(vars))
			for i, v := range vars {
				env[v] = mask&(1<<i) != 0
			}
			if g.Eval(env.Total) != back.Eval(env.Total) {
				t.Logf("round trip diverges under %v: %v vs %v", env, g, back)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestArenaSubstMatchesFormulaSubst: the generation-memoized substitution
// agrees with the pointer implementation under random partial environments.
func TestArenaSubstMatchesFormulaSubst(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randFormula(r, 5)
		env := make(Assignment)
		for _, v := range g.VarSet() {
			switch r.Intn(3) {
			case 0:
				env[v] = true
			case 1:
				env[v] = false
			}
		}
		want := g.Subst(env.Lookup)
		a := NewArena()
		id := a.Import(g, nil)
		a.NewGen()
		got := a.Subst(id, func(v Var) (NodeID, bool) {
			b, ok := env[v]
			if !ok {
				return IDFalse, false
			}
			return a.Const(b), true
		})
		// Substituting twice in the same generation must hit the memo and
		// return the identical id.
		if again := a.Subst(id, func(v Var) (NodeID, bool) {
			b, ok := env[v]
			if !ok {
				return IDFalse, false
			}
			return a.Const(b), true
		}); again != got {
			t.Logf("memoized resubstitution diverged: %d vs %d", again, got)
			return false
		}
		back := a.Export(got, nil)
		rest := want.VarSet()
		if len(rest) > 12 {
			return true
		}
		for mask := 0; mask < 1<<len(rest); mask++ {
			total := make(Assignment, len(rest))
			for i, v := range rest {
				total[v] = mask&(1<<i) != 0
			}
			if want.Eval(total.Total) != back.Eval(total.Total) {
				t.Logf("subst diverges: legacy %v arena %v (input %v env %v)", want, back, g, env)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestArenaCopy: Copy moves a formula between arenas structurally intact
// (same encoding), interns it on arrival (copying twice yields one id), and
// leaves the source untouched.
func TestArenaCopy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := NewArena()
		id := src.Import(randFormula(r, 4), nil)
		want := src.AppendEncodedID(nil, id)
		srcLen := src.Len()
		dst := NewArena()
		dst.Import(randFormula(r, 3), nil) // ids differ between the arenas
		memo := make(map[NodeID]NodeID)
		got := dst.Copy(src, id, memo)
		if !bytes.Equal(dst.AppendEncodedID(nil, got), want) {
			t.Logf("copy of %v encodes differently", src.String(id))
			return false
		}
		if dst.Copy(src, id, nil) != got {
			t.Logf("second copy of %v interned to a new id", src.String(id))
			return false
		}
		return src.Len() == srcLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestDecoderDepthGuard: a hostile buffer of chained NOT opcodes must be
// rejected instead of overflowing the stack, while a legitimate (modest)
// nesting depth still decodes.
func TestDecoderDepthGuard(t *testing.T) {
	hostile := bytes.Repeat([]byte{wireNot}, 1<<20)
	hostile = append(hostile, wireTrue)
	if _, err := NewDecoder(hostile).DecodeID(NewArena()); !errors.Is(err, ErrBadFormula) {
		t.Errorf("decoder accepted a %d-deep NOT chain: %v", 1<<20, err)
	}

	okDepth := 1000
	buf := bytes.Repeat([]byte{wireNot}, okDepth)
	buf = append(buf, wireVar, 1, byte(VecV), 2)
	if _, err := NewDecoder(buf).DecodeID(NewArena()); err != nil {
		t.Errorf("decoder rejected legitimate depth %d: %v", okDepth, err)
	}

	// The guard resets between formulas of one stream: many shallow
	// formulas must not accumulate depth.
	var stream []byte
	for i := 0; i < maxDepth+10; i++ {
		stream = append(stream, wireNot, wireVar, 1, byte(VecV), 2)
	}
	d, a := NewDecoder(stream), NewArena()
	for i := 0; i < maxDepth+10; i++ {
		if _, err := d.DecodeID(a); err != nil {
			t.Fatalf("formula %d of a shallow stream rejected: %v", i, err)
		}
	}
}

// TestBitVec covers the packed bitset primitives.
func TestBitVec(t *testing.T) {
	b := NewBitVec(130)
	if len(b) != 3 {
		t.Fatalf("NewBitVec(130) has %d words, want 3", len(b))
	}
	for _, i := range []int32{0, 63, 64, 127, 129} {
		if b.Get(i) {
			t.Errorf("fresh bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	c := NewBitVec(130)
	c.Or(b)
	for _, i := range []int32{0, 63, 64, 127, 129} {
		if !c.Get(i) {
			t.Errorf("Or missed bit %d", i)
		}
	}
	c.Assign(64, false)
	if c.Get(64) {
		t.Error("Assign(64,false) left the bit set")
	}
	c.Clear()
	for _, i := range []int32{0, 63, 64, 127, 129} {
		if c.Get(i) {
			t.Errorf("Clear left bit %d", i)
		}
	}
}

// TestArenaConstantsAndFolding pins the constructor identities the
// evaluator's fast paths rely on.
func TestArenaConstantsAndFolding(t *testing.T) {
	a := NewArena()
	x := a.Var(Var{Frag: 1, Vec: VecV, Q: 0})
	y := a.Var(Var{Frag: 1, Vec: VecDV, Q: 1})
	cases := []struct {
		got, want NodeID
		name      string
	}{
		{a.Const(true), IDTrue, "Const(true)"},
		{a.Const(false), IDFalse, "Const(false)"},
		{a.And2(x, IDTrue), x, "x∧1"},
		{a.And2(IDFalse, x), IDFalse, "0∧x"},
		{a.Or2(x, IDFalse), x, "x∨0"},
		{a.Or2(IDTrue, x), IDTrue, "1∨x"},
		{a.And2(x, x), x, "x∧x"},
		{a.Or2(x, x), x, "x∨x"},
		{a.Not(a.Not(x)), x, "¬¬x"},
		{a.Not(IDTrue), IDFalse, "¬1"},
		{a.And2(a.And2(x, y), x), a.And2(x, y), "(x∧y)∧x flattens+dedupes"},
		{a.Or2(x, a.Or2(x, y)), a.Or2(x, y), "x∨(x∨y) flattens+dedupes"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got id %d (%s), want id %d (%s)", c.name, c.got, a.String(c.got), c.want, a.String(c.want))
		}
	}
}
