package eval

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/boolexpr"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// ErrUnresolved is returned by Solve when a triplet's formulas cannot be
// reduced to constants — some referenced fragment's triplet is missing.
var ErrUnresolved = errors.New("eval: unresolved variables in the equation system")

// solveScratch pools the substitution environment and the copy memo of
// one evalST run. A steady-state serving round solves one system per
// flush; clear() keeps the maps' bucket storage, so the round reuses the
// previous round's capacity instead of re-growing two maps per solve.
type solveScratch struct {
	env  map[boolexpr.Var]boolexpr.NodeID
	memo map[boolexpr.NodeID]boolexpr.NodeID
}

var solveScratchPool = sync.Pool{New: func() any {
	return &solveScratch{
		env:  make(map[boolexpr.Var]boolexpr.NodeID),
		memo: make(map[boolexpr.NodeID]boolexpr.NodeID),
	}
}}

func getSolveScratch() *solveScratch { return solveScratchPool.Get().(*solveScratch) }

func putSolveScratch(s *solveScratch) {
	clear(s.env)
	clear(s.memo)
	solveScratchPool.Put(s)
}

// solveSpace is the single arena one evalST run computes in, with the
// triplets bound to it.
type solveSpace struct {
	a        *boolexpr.Arena
	triplets map[xmltree.FragmentID]Triplet
	sc       *solveScratch
	pooled   bool // a came from the pool (the triplets did not share an arena)
}

// gather readies a set of triplets for solving. Triplets that already live
// in one arena — a coordinator decodes a whole round into one — are solved
// in place, with no copying; triplets of separate arenas (each BottomUp
// owns its own) are first copied into a pooled arena, V and DV only, since
// evalST never reads a sub-fragment's CV.
func gather(triplets map[xmltree.FragmentID]Triplet) solveSpace {
	sp := solveSpace{triplets: triplets, sc: getSolveScratch()}
	shared := true
	for _, t := range triplets {
		if sp.a == nil {
			sp.a = t.A
		} else if t.A != sp.a {
			shared = false
			break
		}
	}
	if shared && sp.a != nil {
		return sp
	}
	sp.a, sp.pooled = solveArenaPool.Get().(*boolexpr.Arena), true
	sp.triplets = make(map[xmltree.FragmentID]Triplet, len(triplets))
	for id, t := range triplets {
		sp.triplets[id] = Triplet{A: sp.a, V: copyVector(sp.a, t.A, t.V, sp.sc.memo), DV: copyVector(sp.a, t.A, t.DV, sp.sc.memo)}
		// The memo is keyed by t.A's ids and the next triplet may live
		// elsewhere. Most triplets are all-constant and leave it empty;
		// clearing a pooled map costs its capacity, so skip those.
		if len(sp.sc.memo) > 0 {
			clear(sp.sc.memo)
		}
	}
	return sp
}

func (sp solveSpace) release() {
	putSolveScratch(sp.sc)
	if sp.pooled {
		sp.a.Reset()
		solveArenaPool.Put(sp.a)
	}
}

// solveArenaPool holds the arenas gather copies into. They are kept apart
// from arenaPool because returning a BottomUp arena is optional: a caller
// that never does would otherwise have its next BottomUp take the arena a
// solve just grown and warmed, and every solve start from a cold one.
var solveArenaPool = sync.Pool{New: func() any { return boolexpr.NewArena() }}

// copyVector interns the ids of arena src into dst.
func copyVector(dst, src *boolexpr.Arena, ids []boolexpr.NodeID, memo map[boolexpr.NodeID]boolexpr.NodeID) []boolexpr.NodeID {
	out := make([]boolexpr.NodeID, len(ids))
	for i, x := range ids {
		out[i] = dst.Copy(src, x, memo)
	}
	return out
}

// Solve is Procedure evalST: a single bottom-up traversal of the source
// tree that unifies the variables of each fragment's triplet with its
// sub-fragments' computed values, and returns the answer — the value of
// the last QList entry at the root fragment. All fragments of st must have
// a triplet; the returned work is the number of formula nodes visited,
// which realizes the paper's O(|q|·card(F)) bound for the third phase.
//
// The system is solved in one arena (see gather: the triplets' own when
// they share one, which substitution then grows), where structurally equal
// formulas across fragments are one node and substitution is memoized per
// (node, fragment-generation), so shared subformulas are rewritten once
// instead of once per occurrence.
func Solve(st *frag.SourceTree, triplets map[xmltree.FragmentID]Triplet, prog *xpath.Program) (bool, int64, error) {
	ans, work, resolved, err := solve(st, triplets, prog, true)
	if err != nil {
		return false, work, err
	}
	if !resolved {
		return false, work, ErrUnresolved
	}
	return ans, work, nil
}

// SolvePartial is the relaxation LazyParBoX uses: only the fragments
// evaluated so far have triplets. It substitutes what it can; resolved
// reports whether the root answer already folded to a constant (in which
// case deeper fragments need not be evaluated at all).
func SolvePartial(st *frag.SourceTree, triplets map[xmltree.FragmentID]Triplet, prog *xpath.Program) (ans bool, work int64, resolved bool, err error) {
	return solve(st, triplets, prog, false)
}

// solve is the evalST core. The substitution environment is filled
// fragment by fragment, children before parents.
func solve(st *frag.SourceTree, triplets map[xmltree.FragmentID]Triplet, prog *xpath.Program, needAll bool) (bool, int64, bool, error) {
	sp := gather(triplets)
	defer sp.release()
	a, triplets, env := sp.a, sp.triplets, sp.sc.env
	n := len(prog.Subs)
	root := st.Root()
	lookup := func(v boolexpr.Var) (boolexpr.NodeID, bool) {
		f, ok := env[v]
		return f, ok
	}
	var work int64
	var rootV []boolexpr.NodeID

	topo := st.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- { // children before parents
		id := topo[i]
		t, ok := triplets[id]
		if !ok {
			if needAll {
				return false, work, false, fmt.Errorf("eval: missing triplet for fragment %d", id)
			}
			continue
		}
		if len(t.V) != n || len(t.DV) != n {
			return false, work, false, fmt.Errorf("eval: fragment %d triplet has wrong arity", id)
		}
		// One memo generation per fragment: its 2n entries share one
		// environment (their variables all predate this fragment), so a
		// subformula shared across entries is substituted exactly once.
		// Resolved V entries are only materialized for the root fragment —
		// every other fragment's values are consumed through env alone.
		a.NewGen()
		var resolvedV []boolexpr.NodeID
		if id == root {
			resolvedV = make([]boolexpr.NodeID, n)
		}
		for _, vec := range []struct {
			kind boolexpr.VecKind
			fs   []boolexpr.NodeID
		}{
			{boolexpr.VecV, t.V},
			{boolexpr.VecDV, t.DV},
		} {
			for q, f := range vec.fs {
				work += int64(a.Size(f))
				g := a.Subst(f, lookup)
				env[boolexpr.Var{Frag: int32(id), Vec: vec.kind, Q: int32(q)}] = g
				if vec.kind == boolexpr.VecV && resolvedV != nil {
					resolvedV[q] = g
				}
			}
		}
		if id == root {
			rootV = resolvedV
		}
	}
	if rootV == nil {
		return false, work, false, fmt.Errorf("eval: missing triplet for root fragment %d", root)
	}
	ansF := rootV[prog.Root()]
	if v, ok := a.ConstValue(ansF); ok {
		return v, work, true, nil
	}
	return false, work, false, nil
}

// SolveMulti solves the equation system once and reads off the values of
// several entries at the root fragment — the third phase of batch
// evaluation, where one shared QList answers many queries.
func SolveMulti(st *frag.SourceTree, triplets map[xmltree.FragmentID]Triplet, prog *xpath.Program, roots []int32) ([]bool, int64, error) {
	vecs, work, err := SolveAll(st, triplets, prog)
	if err != nil {
		return nil, work, err
	}
	rootVec, ok := vecs[st.Root()]
	if !ok {
		return nil, work, fmt.Errorf("eval: missing root fragment %d", st.Root())
	}
	out := make([]bool, len(roots))
	for i, idx := range roots {
		if idx < 0 || int(idx) >= len(rootVec.V) {
			return nil, work, fmt.Errorf("eval: root index %d out of range", idx)
		}
		out[i] = rootVec.V[idx]
	}
	return out, work, nil
}

// SolveAll solves the equation system like Solve but returns the resolved
// constant V/DV vectors of EVERY fragment — the values pass 2 of
// SelectParBoX distributes so that guards at virtual nodes become plain
// booleans.
func SolveAll(st *frag.SourceTree, triplets map[xmltree.FragmentID]Triplet, prog *xpath.Program) (map[xmltree.FragmentID]BoolVecs, int64, error) {
	n := len(prog.Subs)
	sp := gather(triplets)
	defer sp.release()
	a, ats, env := sp.a, sp.triplets, sp.sc.env
	lookup := func(v boolexpr.Var) (boolexpr.NodeID, bool) {
		f, ok := env[v]
		return f, ok
	}
	out := make(map[xmltree.FragmentID]BoolVecs, len(ats))
	var work int64
	topo := st.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		t, ok := ats[id]
		if !ok {
			return nil, work, fmt.Errorf("eval: missing triplet for fragment %d", id)
		}
		if len(t.V) != n || len(t.DV) != n {
			return nil, work, fmt.Errorf("eval: fragment %d triplet has wrong arity", id)
		}
		a.NewGen()
		bv := BoolVecs{V: make([]bool, n), DV: make([]bool, n)}
		for q := 0; q < n; q++ {
			work += int64(a.Size(t.V[q]) + a.Size(t.DV[q]))
			rv := a.Subst(t.V[q], lookup)
			rd := a.Subst(t.DV[q], lookup)
			cv, okv := a.ConstValue(rv)
			cd, okd := a.ConstValue(rd)
			if !okv || !okd {
				return nil, work, fmt.Errorf("eval: fragment %d: %w", id, ErrUnresolved)
			}
			bv.V[q], bv.DV[q] = cv, cd
			env[boolexpr.Var{Frag: int32(id), Vec: boolexpr.VecV, Q: int32(q)}] = rv
			env[boolexpr.Var{Frag: int32(id), Vec: boolexpr.VecDV, Q: int32(q)}] = rd
		}
		out[id] = bv
	}
	return out, work, nil
}

// ResolveTriplet substitutes the fully resolved triplets of a fragment's
// sub-fragments into its own triplet, producing a variable-free triplet.
// This is the per-site unification step of Procedure evalDistrST
// (FullDistParBoX): "no variables appear in the resulting triplet". The
// work happens in own's arena, which the result is bound to; sub-fragment
// triplets of other arenas are copied in.
func ResolveTriplet(id xmltree.FragmentID, own Triplet, subs map[xmltree.FragmentID]Triplet, prog *xpath.Program) (Triplet, int64, error) {
	n := len(prog.Subs)
	if len(own.V) != n || len(own.CV) != n || len(own.DV) != n {
		return Triplet{}, 0, fmt.Errorf("eval: fragment %d triplet has wrong arity", id)
	}
	a := own.A
	sc := getSolveScratch()
	defer putSolveScratch(sc)
	memo, env := sc.memo, sc.env
	for sub, t := range subs {
		if len(t.V) != n || len(t.DV) != n {
			return Triplet{}, 0, fmt.Errorf("eval: sub-fragment %d triplet has wrong arity", sub)
		}
		intern := func(x boolexpr.NodeID) boolexpr.NodeID {
			if t.A == a {
				return x
			}
			return a.Copy(t.A, x, memo)
		}
		for q := 0; q < n; q++ {
			env[boolexpr.Var{Frag: int32(sub), Vec: boolexpr.VecV, Q: int32(q)}] = intern(t.V[q])
			env[boolexpr.Var{Frag: int32(sub), Vec: boolexpr.VecDV, Q: int32(q)}] = intern(t.DV[q])
			if q < len(t.CV) {
				env[boolexpr.Var{Frag: int32(sub), Vec: boolexpr.VecCV, Q: int32(q)}] = intern(t.CV[q])
			}
		}
		if len(memo) > 0 {
			clear(memo) // keyed by t.A's ids
		}
	}
	lookup := func(v boolexpr.Var) (boolexpr.NodeID, bool) {
		f, ok := env[v]
		return f, ok
	}
	var work int64
	a.NewGen()
	out := Triplet{
		A:  a,
		V:  make([]boolexpr.NodeID, n),
		CV: make([]boolexpr.NodeID, n),
		DV: make([]boolexpr.NodeID, n),
	}
	for q := 0; q < n; q++ {
		work += int64(a.Size(own.V[q]) + a.Size(own.CV[q]) + a.Size(own.DV[q]))
		out.V[q] = a.Subst(own.V[q], lookup)
		out.CV[q] = a.Subst(own.CV[q], lookup)
		out.DV[q] = a.Subst(own.DV[q], lookup)
	}
	for q := 0; q < n; q++ {
		for _, f := range []boolexpr.NodeID{out.V[q], out.CV[q], out.DV[q]} {
			if !a.IsConst(f) {
				return Triplet{}, work, fmt.Errorf("eval: fragment %d: %w: %v", id, ErrUnresolved, a.String(f))
			}
		}
	}
	return out, work, nil
}

// CompactAt is the arena size, in nodes, at which CompactTriplets compacts.
const CompactAt = 1 << 16

// CompactTriplets bounds arena growth across the updates of a long-lived
// coordinator state (a materialized view, a subscription's solver state),
// whose arena accumulates the nodes of superseded triplets and of every
// re-solve. Once a holds CompactAt nodes, the live triplets — all bound to
// a — are copied into a fresh arena, rebound in place, and the fresh arena
// is returned; below the threshold a itself is. Compaction invalidates
// every id of the old arena, so it must run before any triplet of the
// current operation is decoded: a decoded-but-not-yet-stored triplet must
// never straddle it.
func CompactTriplets(a *boolexpr.Arena, triplets map[xmltree.FragmentID]Triplet) *boolexpr.Arena {
	if a.Len() < CompactAt {
		return a
	}
	fresh := boolexpr.NewArena()
	memo := make(map[boolexpr.NodeID]boolexpr.NodeID)
	for id, t := range triplets {
		triplets[id] = Triplet{
			A:  fresh,
			V:  copyVector(fresh, a, t.V, memo),
			CV: copyVector(fresh, a, t.CV, memo),
			DV: copyVector(fresh, a, t.DV, memo),
		}
	}
	return fresh
}
