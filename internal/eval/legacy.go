package eval

import (
	"errors"
	"fmt"

	"repro/internal/boolexpr"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// This file preserves the original pointer-formula evaluator verbatim. It
// is NOT on any production path: BottomUp and Solve run on the
// bitset/arena planes (see bottomup.go, solve.go), and this file is the
// only place outside package boolexpr that still speaks the pointer
// Formula. The legacy code is kept as the reference implementation that
// the differential property tests compare against — two independently
// written evaluators agreeing on random trees, fragmentations and QLists
// is the correctness argument for the optimized core.

// LegacyTriplet is the reference evaluator's triplet: one pointer Formula
// per entry.
type LegacyTriplet struct {
	V, CV, DV []*boolexpr.Formula
}

// LegacyBottomUp is the original Procedure bottomUp: one pointer Formula
// per node×subquery, with constant folding in the constructors. Semantics
// and step accounting are identical to BottomUp.
func LegacyBottomUp(root *xmltree.Node, prog *xpath.Program) (LegacyTriplet, int64, error) {
	if root == nil {
		return LegacyTriplet{}, 0, errors.New("eval: nil fragment root")
	}
	if root.Virtual {
		return LegacyTriplet{}, 0, errors.New("eval: fragment root is a virtual node")
	}
	n := len(prog.Subs)
	var steps int64

	type frame struct {
		node   *xmltree.Node
		next   int // next child index to process
		cv, dv []*boolexpr.Formula
	}
	// Popped frames' vectors are recycled through a free list: the
	// traversal allocates O(depth) vectors instead of O(|F_j|).
	var pool [][]*boolexpr.Formula
	newVec := func() []*boolexpr.Formula {
		if len(pool) > 0 {
			v := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			for i := range v {
				v[i] = boolexpr.False()
			}
			return v
		}
		v := make([]*boolexpr.Formula, n)
		for i := range v {
			v[i] = boolexpr.False()
		}
		return v
	}
	stack := []*frame{{node: root, cv: newVec(), dv: newVec()}}
	var result LegacyTriplet

	for len(stack) > 0 {
		f := stack[len(stack)-1]
		// Fold in virtual children directly; descend into real ones.
		descended := false
		for f.next < len(f.node.Children) {
			c := f.node.Children[f.next]
			f.next++
			if c.Virtual {
				steps += int64(n)
				for i := 0; i < n; i++ {
					vVar := boolexpr.NewVar(boolexpr.Var{Frag: int32(c.Frag), Vec: boolexpr.VecV, Q: int32(i)})
					dVar := boolexpr.NewVar(boolexpr.Var{Frag: int32(c.Frag), Vec: boolexpr.VecDV, Q: int32(i)})
					f.cv[i] = boolexpr.Or(f.cv[i], vVar)
					f.dv[i] = boolexpr.Or(f.dv[i], dVar)
				}
				continue
			}
			stack = append(stack, &frame{node: c, cv: newVec(), dv: newVec()})
			descended = true
			break
		}
		if descended {
			continue
		}
		// All children folded: evaluate the nine cases at this node.
		steps += int64(n)
		v := newVec()
		legacyEvalCasesInto(v, f.node, prog, f.cv, f.dv)
		stack = stack[:len(stack)-1]
		if len(stack) == 0 {
			result = LegacyTriplet{V: v, CV: f.cv, DV: f.dv}
			break
		}
		p := stack[len(stack)-1]
		for i := 0; i < n; i++ {
			p.cv[i] = boolexpr.Or(p.cv[i], v[i])    // line 4 of bottomUp
			p.dv[i] = boolexpr.Or(p.dv[i], f.dv[i]) // line 5 of bottomUp
		}
		// The child's vectors only carried formula POINTERS upward; the
		// slices themselves are free for reuse.
		pool = append(pool, v, f.cv, f.dv)
	}
	return result, steps, nil
}

// legacyEvalCasesInto computes the value vector V_v at node v (lines 6-17
// of Procedure bottomUp), updating dv to descendant-or-self as it goes
// (line 17). The write to dv[i] must happen inside the loop: a later
// subquery //q_i reads dv[i] and expects it to include V_v (the paper's
// left-to-right processing order).
func legacyEvalCasesInto(v []*boolexpr.Formula, node *xmltree.Node, prog *xpath.Program, cv, dv []*boolexpr.Formula) {
	for i, sq := range prog.Subs {
		var f *boolexpr.Formula
		switch sq.Kind {
		case xpath.KTrue: // (c0) ε
			f = boolexpr.True()
		case xpath.KLabel: // (c1) label() = l
			f = boolexpr.Const(node.Label == sq.Str)
		case xpath.KText: // (c2) text() = str
			f = boolexpr.Const(node.Text == sq.Str)
		case xpath.KChild: // (c3) */q
			f = cv[sq.A]
		case xpath.KFilter: // (c4) ε[q]/q'
			f = v[sq.A]
			if sq.B >= 0 {
				f = boolexpr.CompFm(f, v[sq.B], boolexpr.AND)
			}
		case xpath.KDesc: // (c5) //q
			f = dv[sq.A]
		case xpath.KOr: // (c6)
			f = boolexpr.CompFm(v[sq.A], v[sq.B], boolexpr.OR)
		case xpath.KAnd: // (c7)
			f = boolexpr.CompFm(v[sq.A], v[sq.B], boolexpr.AND)
		case xpath.KNot: // (c8)
			f = boolexpr.CompFm(v[sq.A], nil, boolexpr.NEG)
		default:
			panic(fmt.Sprintf("eval: unknown subquery kind %v", sq.Kind))
		}
		v[i] = f
		dv[i] = boolexpr.Or(f, dv[i]) // line 17
	}
}

// LegacySolve is the original Procedure evalST over pointer formulas:
// per-entry Formula.Subst re-walks with no memoization. Reference
// implementation for the differential tests.
func LegacySolve(st *frag.SourceTree, triplets map[xmltree.FragmentID]LegacyTriplet, prog *xpath.Program) (bool, int64, error) {
	n := len(prog.Subs)
	root := st.Root()
	env := make(map[boolexpr.Var]*boolexpr.Formula, 2*n*len(triplets))
	lookup := func(v boolexpr.Var) (*boolexpr.Formula, bool) {
		f, ok := env[v]
		return f, ok
	}
	var work int64
	var rootV []*boolexpr.Formula

	topo := st.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- { // children before parents
		id := topo[i]
		t, ok := triplets[id]
		if !ok {
			return false, work, fmt.Errorf("eval: missing triplet for fragment %d", id)
		}
		if len(t.V) != n || len(t.DV) != n {
			return false, work, fmt.Errorf("eval: fragment %d triplet has wrong arity", id)
		}
		var resolvedV []*boolexpr.Formula
		for _, vec := range []struct {
			kind boolexpr.VecKind
			fs   []*boolexpr.Formula
		}{
			{boolexpr.VecV, t.V},
			{boolexpr.VecDV, t.DV},
		} {
			for q, f := range vec.fs {
				work += int64(f.Size())
				g := f.Subst(lookup)
				env[boolexpr.Var{Frag: int32(id), Vec: vec.kind, Q: int32(q)}] = g
				if vec.kind == boolexpr.VecV {
					if resolvedV == nil {
						resolvedV = make([]*boolexpr.Formula, n)
					}
					resolvedV[q] = g
				}
			}
		}
		if id == root {
			rootV = resolvedV
		}
	}
	if rootV == nil {
		return false, work, fmt.Errorf("eval: missing triplet for root fragment %d", root)
	}
	ansF := rootV[prog.Root()]
	if v, ok := ansF.ConstValue(); ok {
		return v, work, nil
	}
	return false, work, ErrUnresolved
}
