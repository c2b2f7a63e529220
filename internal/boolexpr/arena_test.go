package boolexpr

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestArenaHashConsing: building the same structure twice yields the same
// id — the O(1) structural equality the evaluator and view layer rely on —
// and building it in a fresh arena yields the same encoding.
func TestArenaHashConsing(t *testing.T) {
	f := func(seed int64) bool {
		a := NewArena()
		id1 := genID(rand.New(rand.NewSource(seed)), a, 4)
		n := a.Len()
		id2 := genID(rand.New(rand.NewSource(seed)), a, 4)
		if id1 != id2 || a.Len() != n {
			t.Logf("same build, different ids: %d vs %d for %s", id1, id2, a.String(id1))
			return false
		}
		b := NewArena()
		id3 := genID(rand.New(rand.NewSource(seed)), b, 4)
		return bytes.Equal(a.AppendEncodedID(nil, id1), b.AppendEncodedID(nil, id3))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestArenaSubstMatchesFormulaSubst: the generation-memoized substitution
// agrees with substitution on the formula's plain recursive meaning under
// random partial environments. The reference is a closure tree built
// alongside the arena formula, so it shares no code with Subst, Eval or the
// folding constructors. The residual mentions no bound variable, and
// substituting again in the same generation returns the identical id.
func TestArenaSubstMatchesFormulaSubst(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		var build func(depth int) (func(assignment) bool, NodeID)
		build = func(depth int) (func(assignment) bool, NodeID) {
			if depth <= 0 || r.Intn(4) == 0 {
				switch r.Intn(4) {
				case 0:
					return func(assignment) bool { return true }, IDTrue
				case 1:
					return func(assignment) bool { return false }, IDFalse
				default:
					v := genVars[r.Intn(len(genVars))]
					return func(m assignment) bool { return m[v] }, a.Var(v)
				}
			}
			if r.Intn(3) == 0 {
				e, g := build(depth - 1)
				return func(m assignment) bool { return !e(m) }, a.Not(g)
			}
			e1, g1 := build(depth - 1)
			e2, g2 := build(depth - 1)
			if r.Intn(2) == 0 {
				return func(m assignment) bool { return e1(m) && e2(m) }, a.And2(g1, g2)
			}
			return func(m assignment) bool { return e1(m) || e2(m) }, a.Or2(g1, g2)
		}
		ref, x := build(5)
		env := make(assignment)
		for _, v := range genVars {
			switch r.Intn(3) {
			case 0:
				env[v] = true
			case 1:
				env[v] = false
			}
		}
		a.NewGen()
		got := a.Subst(x, env.lookup(a))
		if again := a.Subst(x, env.lookup(a)); again != got {
			t.Logf("memoized resubstitution diverged: %d vs %d", again, got)
			return false
		}
		bound := false
		a.Vars(got, func(v Var) {
			if _, ok := env[v]; ok {
				bound = true
			}
		})
		if bound {
			t.Logf("residual %s still mentions a variable of %v", a.String(got), env)
			return false
		}
		return everyAssignment(func(m assignment) bool {
			// The reference substitutes by overriding m with env.
			sub := make(assignment, len(m))
			for v, b := range m {
				sub[v] = b
			}
			for v, b := range env {
				sub[v] = b
			}
			if a.Eval(got, m.total) != ref(sub) {
				t.Logf("subst diverges: residual %s of %s under %v, env %v", a.String(got), a.String(x), m, env)
				return false
			}
			return true
		})
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
		id := genID(r, src, 4)
		want := src.AppendEncodedID(nil, id)
		srcLen := src.Len()
		dst := NewArena()
		genID(r, dst, 3) // ids differ between the arenas
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
