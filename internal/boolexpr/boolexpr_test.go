package boolexpr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// genVars is the small variable universe used by the generators, so random
// formulas share variables often enough to exercise dedup and folding, and
// every truth table is exhaustive (2^5 assignments).
var genVars = []Var{
	{Frag: 1, Vec: VecV, Q: 0},
	{Frag: 1, Vec: VecDV, Q: 1},
	{Frag: 2, Vec: VecV, Q: 2},
	{Frag: 2, Vec: VecDV, Q: 0},
	{Frag: 3, Vec: VecCV, Q: 5},
}

// genID builds a random formula of bounded depth through the arena's own
// constructors, so every generated formula is in constructor-normal form.
// It is deterministic in r: replaying a seed rebuilds the same structure.
func genID(r *rand.Rand, a *Arena, depth int) NodeID {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return IDTrue
		case 1:
			return IDFalse
		default:
			return a.Var(genVars[r.Intn(len(genVars))])
		}
	}
	if r.Intn(3) == 0 {
		return a.Not(genID(r, a, depth-1))
	}
	and := r.Intn(2) == 0
	ks := make([]NodeID, 2+r.Intn(3))
	for i := range ks {
		ks[i] = genID(r, a, depth-1)
	}
	if and {
		return a.And(ks...)
	}
	return a.Or(ks...)
}

// assignment is a truth assignment over genVars.
type assignment map[Var]bool

func genAssignment(r *rand.Rand) assignment {
	m := make(assignment, len(genVars))
	for _, v := range genVars {
		m[v] = r.Intn(2) == 0
	}
	return m
}

// total adapts m to Arena.Eval; unbound variables are false.
func (m assignment) total(v Var) bool { return m[v] }

// lookup adapts m to Arena.Subst, binding exactly m's variables.
func (m assignment) lookup(a *Arena) func(Var) (NodeID, bool) {
	return func(v Var) (NodeID, bool) {
		b, ok := m[v]
		return a.Const(b), ok
	}
}

// everyAssignment reports whether ok holds under all 2^5 assignments of
// genVars.
func everyAssignment(ok func(assignment) bool) bool {
	for bits := 0; bits < 1<<len(genVars); bits++ {
		m := make(assignment, len(genVars))
		for i, v := range genVars {
			m[v] = bits&(1<<i) != 0
		}
		if !ok(m) {
			return false
		}
	}
	return true
}

// equivalent reports whether x and y agree under every assignment.
func equivalent(a *Arena, x, y NodeID) bool {
	return everyAssignment(func(m assignment) bool { return a.Eval(x, m.total) == a.Eval(y, m.total) })
}

func TestConstants(t *testing.T) {
	a := NewArena()
	if v, ok := a.ConstValue(IDTrue); !ok || !v {
		t.Errorf("ConstValue(IDTrue) = %v, %v; want true, true", v, ok)
	}
	if v, ok := a.ConstValue(IDFalse); !ok || v {
		t.Errorf("ConstValue(IDFalse) = %v, %v; want false, true", v, ok)
	}
	if a.Const(true) != IDTrue || a.Const(false) != IDFalse {
		t.Error("Const does not return the canonical constants")
	}
	x := a.Var(genVars[0])
	if _, ok := a.ConstValue(x); ok || a.IsConst(x) {
		t.Error("a variable must not be constant")
	}
}

func TestNotFolding(t *testing.T) {
	a := NewArena()
	if a.Not(IDTrue) != IDFalse || a.Not(IDFalse) != IDTrue {
		t.Error("Not does not fold constants")
	}
	x := a.Var(genVars[0])
	if a.Not(a.Not(x)) != x {
		t.Error("double negation not eliminated")
	}
	if nx := a.Not(x); nx == x || a.IsConst(nx) || a.String(nx) != "!x(1,V,0)" {
		t.Errorf("Not(x) should be a negation node, got %s", a.String(nx))
	}
}

func TestAndOrFolding(t *testing.T) {
	a := NewArena()
	x, y := a.Var(genVars[0]), a.Var(genVars[1])
	cases := []struct {
		name      string
		got, want NodeID
	}{
		{"and-false-absorbs", a.And(x, IDFalse, y), IDFalse},
		{"and-true-identity", a.And(IDTrue, x), x},
		{"and-empty", a.And(), IDTrue},
		{"or-true-absorbs", a.Or(x, IDTrue), IDTrue},
		{"or-false-identity", a.Or(IDFalse, y), y},
		{"or-empty", a.Or(), IDFalse},
		{"and-dedup", a.And(x, x), x},
		{"or-dedup", a.Or(y, y, y), y},
		{"and-flatten", a.And(a.And(x, y), x), a.And(x, y)},
		{"or-flatten", a.Or(x, a.Or(y, x)), a.Or(x, y)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, a.String(c.got), a.String(c.want))
		}
	}
}

func TestCompFmTruthTable(t *testing.T) {
	// Procedure compFm on constants must agree with the Boolean operators;
	// this is the (0,0) case of the paper's case analysis.
	a := NewArena()
	for _, p := range []bool{false, true} {
		for _, q := range []bool{false, true} {
			if got, _ := a.ConstValue(a.CompFm(a.Const(p), a.Const(q), AND)); got != (p && q) {
				t.Errorf("CompFm(%v,%v,AND) = %v", p, q, got)
			}
			if got, _ := a.ConstValue(a.CompFm(a.Const(p), a.Const(q), OR)); got != (p || q) {
				t.Errorf("CompFm(%v,%v,OR) = %v", p, q, got)
			}
		}
		if got, _ := a.ConstValue(a.CompFm(a.Const(p), IDFalse, NEG)); got != !p {
			t.Errorf("CompFm(%v,-,NEG) = %v", p, got)
		}
	}
}

func TestCompFmMixed(t *testing.T) {
	// Cases (c1)-(c3): composing a constant with a residual formula must
	// either short-circuit or keep the residual.
	a := NewArena()
	x := a.Var(genVars[0])
	if a.CompFm(IDTrue, x, AND) != x {
		t.Error("true AND f must be f")
	}
	if a.CompFm(IDFalse, x, AND) != IDFalse {
		t.Error("false AND f must be false")
	}
	if a.CompFm(IDTrue, x, OR) != IDTrue {
		t.Error("true OR f must be true")
	}
	if a.CompFm(IDFalse, x, OR) != x {
		t.Error("false OR f must be f")
	}
	y := a.Var(genVars[1])
	if f := a.CompFm(x, y, AND); a.String(f) != "x(1,V,0) & x(1,DV,1)" {
		t.Errorf("x AND y should stay residual, got %s", a.String(f))
	}
}

// TestPropFoldingSoundness checks that the simplifying constructors preserve
// semantics: a formula built with constructors evaluates exactly as its
// un-simplified counterpart under every assignment.
func TestPropFoldingSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		// Build a random "raw" evaluation plan and its constructor version.
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
			switch r.Intn(3) {
			case 0:
				e, g := build(depth - 1)
				return func(m assignment) bool { return !e(m) }, a.Not(g)
			case 1:
				e1, g1 := build(depth - 1)
				e2, g2 := build(depth - 1)
				return func(m assignment) bool { return e1(m) && e2(m) }, a.And2(g1, g2)
			default:
				e1, g1 := build(depth - 1)
				e2, g2 := build(depth - 1)
				return func(m assignment) bool { return e1(m) || e2(m) }, a.Or2(g1, g2)
			}
		}
		eval, x := build(5)
		return everyAssignment(func(m assignment) bool { return a.Eval(x, m.total) == eval(m) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropSubstThenEval checks that partially substituting some variables
// and then evaluating the residual equals evaluating the original directly,
// under every completion of the partial assignment — and that substituting
// again in the same generation hits the memo and returns the same id.
func TestPropSubstThenEval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		x := genID(r, a, 5)
		partial := make(assignment)
		for _, v := range genVars {
			if r.Intn(2) == 0 {
				partial[v] = r.Intn(2) == 0
			}
		}
		a.NewGen()
		resid := a.Subst(x, partial.lookup(a))
		if again := a.Subst(x, partial.lookup(a)); again != resid {
			t.Logf("memoized resubstitution diverged: %d vs %d", again, resid)
			return false
		}
		return everyAssignment(func(m assignment) bool {
			for v, b := range partial {
				if m[v] != b {
					return true // not a completion of partial
				}
			}
			return a.Eval(resid, m.total) == a.Eval(x, m.total)
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropSubstTotalIsConstant checks that substituting every variable
// always folds the formula to a constant — the property Procedure evalST
// relies on when unifying a leaf fragment's triplet.
func TestPropSubstTotalIsConstant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena()
		x := genID(r, a, 5)
		m := genAssignment(r)
		a.NewGen()
		v, ok := a.ConstValue(a.Subst(x, m.lookup(a)))
		return ok && v == a.Eval(x, m.total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSubstNoBindingReturnsSame(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := NewArena()
	for i := 0; i < 50; i++ {
		x := genID(r, a, 4)
		a.NewGen()
		if got := a.Subst(x, func(Var) (NodeID, bool) { return IDFalse, false }); got != x {
			t.Fatalf("Subst with empty env must return the identical formula, got %s from %s", a.String(got), a.String(x))
		}
	}
}

// TestArenaVars: Vars visits every variable occurrence, duplicates
// included, and nothing else.
func TestArenaVars(t *testing.T) {
	a := NewArena()
	x, y := genVars[0], genVars[2]
	g := a.And2(a.Var(y), a.Or2(a.Var(x), a.Not(a.Var(y))))
	var got []Var
	a.Vars(g, func(v Var) { got = append(got, v) })
	if len(got) != 3 || got[0] != y || got[1] != x || got[2] != y {
		t.Errorf("Vars visited %v, want [%v %v %v]", got, y, x, y)
	}
	a.Vars(IDTrue, func(v Var) { t.Errorf("Vars(true) visited %v", v) })
}

func TestString(t *testing.T) {
	a := NewArena()
	x, y, z := a.Var(genVars[0]), a.Var(genVars[1]), a.Var(genVars[2])
	cases := []struct {
		f    NodeID
		want string
	}{
		{IDTrue, "1"},
		{IDFalse, "0"},
		// An And under an Or needs no parentheses.
		{a.Or2(a.And2(x, a.Not(y)), z), "x(1,V,0) & !x(1,DV,1) | x(2,V,2)"},
		// An Or under an And, or under a Not, gets them.
		{a.And2(a.Or2(x, y), z), "(x(1,V,0) | x(1,DV,1)) & x(2,V,2)"},
		{a.Not(a.And2(x, z)), "!(x(1,V,0) & x(2,V,2))"},
	}
	for _, c := range cases {
		if got := a.String(c.f); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if s := a.String(a.Var(genVars[4])); !strings.Contains(s, "CV") {
		t.Errorf("String of a CV variable = %q", s)
	}
}

func TestSize(t *testing.T) {
	a := NewArena()
	x, y := a.Var(genVars[0]), a.Var(genVars[1])
	if got := a.Size(IDTrue); got != 1 {
		t.Errorf("Size(true) = %d", got)
	}
	if got := a.Size(a.And2(x, a.Not(y))); got != 4 {
		t.Errorf("Size(x & !y) = %d, want 4", got)
	}
	// Shared subformulas count once per occurrence.
	nx := a.Not(x)
	if got := a.Size(a.Or2(a.And2(nx, y), nx)); got != 7 {
		t.Errorf("Size((!x & y) | !x) = %d, want 7", got)
	}
}

// TestEqual: hash-consing makes structural equality id equality, and it is
// structural (ordered), not semantic.
func TestEqual(t *testing.T) {
	a := NewArena()
	x, y := a.Var(genVars[0]), a.Var(genVars[1])
	if a.And2(x, y) != a.And2(x, y) {
		t.Error("structurally equal formulas got different ids")
	}
	if a.And2(x, y) == a.Or2(x, y) {
		t.Error("And vs Or got one id")
	}
	if a.And2(x, y) == a.And2(y, x) {
		t.Error("equality must be structural (ordered), not semantic")
	}
}
