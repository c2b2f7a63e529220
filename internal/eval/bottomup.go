// Package eval implements the two computational procedures at the heart of
// ParBoX (Fig. 3b of the paper):
//
//   - BottomUp — Procedure bottomUp: a single bottom-up traversal of one
//     fragment that computes, for every subquery of the QList, a Boolean
//     formula over the variables introduced at the fragment's virtual
//     nodes. The result is the triplet (V, CV, DV) for the fragment root.
//   - Solve / SolvePartial — Procedure evalST: a bottom-up pass over the
//     source tree that unifies the variables of each fragment's triplet
//     with the computed triplets of its sub-fragments, solving the linear
//     system of Boolean equations.
//
// The evaluator runs on two planes with an automatic switch (see
// DESIGN.md, "Constant plane / variable plane"):
//
//   - The CONSTANT PLANE: while no virtual-node variable is in scope —
//     which is every node of a virtual-free subtree, i.e. the entire
//     fragment in the dominant all-constant case — the per-node vectors
//     (V, CV, DV) are packed uint64 bitsets and the formula connectives
//     are single bitwise instructions. No formula node is ever built.
//   - The VARIABLE PLANE: the first virtual child switches the enclosing
//     frames to int32 ids into a hash-consed formula arena
//     (boolexpr.Arena), where structurally equal subformulas share one
//     interned node, equality is an integer compare, and substitution
//     memoizes per (node, generation).
//
// The package also provides the optimal centralized evaluator (the
// paper's [10, 18] baseline): BottomUp over an unfragmented tree, which
// never leaves the constant plane.
package eval

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/boolexpr"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Triplet is the partial answer of one fragment: the vectors of subquery
// values at the fragment root (V), the disjunction over its children (CV)
// and over its descendants-or-self (DV). Entries are ids into the arena A —
// Boolean formulas over the variables of the fragment's virtual nodes; on
// a fragment without virtual nodes every entry is a constant.
//
// The arena is the one compute form of a triplet and Encode's bytes the
// one interchange form. Triplets of one arena share hash-consed
// subformulas and compare by id; Solve accepts triplets of any mix of
// arenas.
type Triplet struct {
	A         *boolexpr.Arena
	V, CV, DV []boolexpr.NodeID
}

// Equal reports entry-wise structural equality. Within one arena
// hash-consing makes that id equality — the O(1) compare the incremental
// maintenance algorithm uses to decide whether the view can change at all;
// across arenas the encodings are compared.
func (t Triplet) Equal(u Triplet) bool {
	if t.A != u.A {
		return bytes.Equal(t.Encode(), u.Encode())
	}
	return slices.Equal(t.V, u.V) && slices.Equal(t.CV, u.CV) && slices.Equal(t.DV, u.DV)
}

// Size returns the total formula size of the triplet, the unit of the
// paper's O(|q|·card(F_j)) communication bound.
func (t Triplet) Size() int {
	n := 0
	for _, vec := range [][]boolexpr.NodeID{t.V, t.CV, t.DV} {
		for _, f := range vec {
			n += t.A.Size(f)
		}
	}
	return n
}

// arenaPool recycles formula arenas across BottomUp/Solve calls: a
// steady-state serving round reuses one arena's node/intern storage instead
// of re-growing it per fragment. Arenas are Reset before going back in.
var arenaPool = sync.Pool{New: func() any { return boolexpr.NewArena() }}

// GetArena returns an empty arena from the evaluator's pool, for a caller
// that decodes a round's triplets into one arena (DecodeTripletInto) and
// solves there.
func GetArena() *boolexpr.Arena { return arenaPool.Get().(*boolexpr.Arena) }

// PutArena resets a and returns it to the pool: a site that has encoded
// the triplet BottomUp gave it hands back t.A, a coordinator the arena it
// solved in. Every triplet bound to a is invalid afterwards. Returning is
// optional — an arena that is simply dropped is garbage collected.
func PutArena(a *boolexpr.Arena) {
	a.Reset()
	arenaPool.Put(a)
}

// BottomUp is Procedure bottomUp of the paper, run over the fragment rooted
// at root for the compiled QList prog. It returns the fragment's triplet,
// bound to a pooled arena of its own (see PutArena), and the number of
// computation steps performed (node × subquery units, the paper's
// total-computation measure).
//
// The traversal is iterative so that arbitrarily deep fragments cannot
// overflow the stack, and — like the paper's formulation — keeps only one
// accumulator pair (CV, DV) per tree level, not per node. Frames live in a
// value-slice stack and popped frames' vectors are recycled through free
// lists, so the whole traversal allocates O(depth) small objects instead of
// O(|F_j|).
//
// Constant-plane nodes evaluate through the program's fused lane kernel
// (xpath.LaneKernel): the whole QList in a few masked word ops per node
// instead of a per-lane loop. Frames forced onto the variable plane fall
// back to the per-lane arena body, which is the only representation that
// can hold residual formulas.
//
// Virtual nodes do not recurse: a virtual child standing for fragment k
// contributes the variables x(k,V,i) to the parent's CV and x(k,DV,i) to
// the parent's DV. (A parent never consumes a child's CV vector, so no CV
// variables are ever created; see DESIGN.md.)
func BottomUp(root *xmltree.Node, prog *xpath.Program) (Triplet, int64, error) {
	return bottomUpPooled(root, prog, prog.Kernel())
}

// BottomUpPerLane is BottomUp evaluated with the scalar per-lane loop
// instead of the fused lane kernel. It is the differential reference for
// the kernel: the two must agree entry-wise on every (tree, program) pair.
// (Whether either is right is checked against xpath.EvalRaw, which shares
// code with neither.)
func BottomUpPerLane(root *xmltree.Node, prog *xpath.Program) (Triplet, int64, error) {
	return bottomUpPooled(root, prog, nil)
}

func bottomUpPooled(root *xmltree.Node, prog *xpath.Program, kern *xpath.LaneKernel) (Triplet, int64, error) {
	a := GetArena()
	t, steps, err := bottomUpIn(a, root, prog, kern)
	if err != nil {
		PutArena(a)
	}
	return t, steps, err
}

// buFrame is one traversal frame. A frame starts on the constant plane
// (cvb/dvb bitsets); the first virtual child — or a symbolic real child —
// materializes it onto the variable plane (cv/dv arena-id vectors) and the
// bitsets are recycled. cv being non-nil marks the plane.
type buFrame struct {
	node     *xmltree.Node
	next     int
	cvb, dvb boolexpr.BitVec
	cv, dv   []boolexpr.NodeID
}

// buFrame1 is the single-word traversal frame: for programs of at most 64
// lanes — every scheduler round under the default lane budget — the
// constant-plane CV/DV accumulators are plain uint64 words carried in the
// frame itself. No bitset is allocated, recycled, or even touched until a
// virtual child forces the variable plane (cv non-nil marks the switch).
type buFrame1 struct {
	node   *xmltree.Node
	next   int
	cw, dw uint64
	cv, dv []boolexpr.NodeID
}

// buScratch is the pooled traversal workspace: bitset and id-vector free
// lists plus the frame stacks, recycled across BottomUp calls so a
// steady-state serving round re-walks fragments with zero traversal
// allocations. Vectors of a different shape than the current program are
// dropped on reuse (cap check), never resized in place.
type buScratch struct {
	bits   []boolexpr.BitVec
	ids    [][]boolexpr.NodeID
	stack  []buFrame
	stack1 []buFrame1
}

var buScratchPool = sync.Pool{New: func() any { return new(buScratch) }}

// bottomUpIn is BottomUp into the caller's arena; a nil kern selects the
// scalar per-lane loop on the constant plane.
func bottomUpIn(a *boolexpr.Arena, root *xmltree.Node, prog *xpath.Program, kern *xpath.LaneKernel) (Triplet, int64, error) {
	if root == nil {
		return Triplet{}, 0, errors.New("eval: nil fragment root")
	}
	if root.Virtual {
		return Triplet{}, 0, errors.New("eval: fragment root is a virtual node")
	}
	n := len(prog.Subs)
	words := (n + 63) / 64
	var steps int64

	sc := buScratchPool.Get().(*buScratch)
	if kern != nil && kern.Words() == 1 {
		result, steps := bottomUpIn1(a, root, prog, kern, sc)
		buScratchPool.Put(sc)
		return result, steps, nil
	}
	newBits := func() boolexpr.BitVec {
		for {
			k := len(sc.bits)
			if k == 0 {
				return boolexpr.NewBitVec(n)
			}
			b := sc.bits[k-1]
			sc.bits = sc.bits[:k-1]
			if cap(b) >= words {
				b = b[:words]
				b.Clear()
				return b
			}
		}
	}
	newIDs := func() []boolexpr.NodeID {
		for {
			k := len(sc.ids)
			if k == 0 {
				return make([]boolexpr.NodeID, n)
			}
			v := sc.ids[k-1]
			sc.ids = sc.ids[:k-1]
			if cap(v) >= n {
				return v[:n]
			}
		}
	}
	// materialize moves a frame from the constant to the variable plane:
	// every decided bit becomes the corresponding constant id.
	materialize := func(f *buFrame) {
		f.cv, f.dv = newIDs(), newIDs()
		for i := int32(0); i < int32(n); i++ {
			f.cv[i] = a.Const(f.cvb.Get(i))
			f.dv[i] = a.Const(f.dvb.Get(i))
		}
		sc.bits = append(sc.bits, f.cvb, f.dvb)
		f.cvb, f.dvb = nil, nil
	}

	stack := append(sc.stack[:0], buFrame{node: root, cvb: newBits(), dvb: newBits()})
	var result Triplet

	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		// Fold in virtual children directly; descend into real ones.
		descended := false
		for f.next < len(f.node.Children) {
			c := f.node.Children[f.next]
			f.next++
			if c.Virtual {
				steps += int64(n)
				if f.cv == nil {
					materialize(f)
				}
				for i := 0; i < n; i++ {
					vVar := a.Var(boolexpr.Var{Frag: int32(c.Frag), Vec: boolexpr.VecV, Q: int32(i)})
					dVar := a.Var(boolexpr.Var{Frag: int32(c.Frag), Vec: boolexpr.VecDV, Q: int32(i)})
					f.cv[i] = a.Or2(f.cv[i], vVar)
					f.dv[i] = a.Or2(f.dv[i], dVar)
				}
				continue
			}
			if kern != nil && len(c.Children) == 0 {
				// Leaf: CV = DV = 0, so the kernel's leaf plan yields V
				// directly and the outgoing DV is exactly V — no frame, no
				// CV/DV vectors, one scratch word vector.
				steps += int64(n)
				vb := newBits()
				kern.EvalLeaf(vb, c.Label, c.Text)
				if f.cv == nil {
					f.cvb.Or(vb)
					f.dvb.Or(vb)
				} else {
					orBitsInto(a, f.cv, vb)
					orBitsInto(a, f.dv, vb)
				}
				sc.bits = append(sc.bits, vb)
				continue
			}
			stack = append(stack, buFrame{node: c, cvb: newBits(), dvb: newBits()})
			descended = true
			break
		}
		if descended {
			continue
		}
		// All children folded: evaluate the nine cases at this node, on
		// whichever plane the frame ended up on.
		steps += int64(n)
		child := *f // frame fields survive the pop
		stack = stack[:len(stack)-1]
		if child.cv == nil {
			vb := newBits()
			if kern != nil {
				kern.EvalConst(vb, child.cvb, child.dvb, child.node.Label, child.node.Text)
			} else {
				evalCasesBits(vb, child.node, prog, child.cvb, child.dvb)
			}
			if len(stack) == 0 {
				result = constTriplet(a, n, vb, child.cvb, child.dvb)
				sc.bits = append(sc.bits, vb, child.cvb, child.dvb)
				break
			}
			p := &stack[len(stack)-1]
			if p.cv == nil {
				p.cvb.Or(vb)        // line 4 of bottomUp, n/64 words at a time
				p.dvb.Or(child.dvb) // line 5
			} else {
				orBitsInto(a, p.cv, vb)
				orBitsInto(a, p.dv, child.dvb)
			}
			sc.bits = append(sc.bits, vb, child.cvb, child.dvb)
		} else {
			v := newIDs()
			evalCasesArena(a, v, child.node, prog, child.cv, child.dv)
			if len(stack) == 0 {
				// The result vectors escape to the caller; they cannot
				// return to the free lists.
				result = Triplet{A: a, V: v, CV: child.cv, DV: child.dv}
				break
			}
			p := &stack[len(stack)-1]
			if p.cv == nil {
				materialize(p)
			}
			for i := 0; i < n; i++ {
				p.cv[i] = a.Or2(p.cv[i], v[i])        // line 4 of bottomUp
				p.dv[i] = a.Or2(p.dv[i], child.dv[i]) // line 5
			}
			// The child's vectors only carried ids upward; the slices
			// themselves are free for reuse.
			sc.ids = append(sc.ids, v, child.cv, child.dv)
		}
	}
	// Clear frame contents before pooling the stack so popped frames don't
	// pin tree nodes (and the early-break leftovers don't leak vectors into
	// the next call with a different shape — the cap checks handle shape,
	// the zeroing handles liveness).
	stack = stack[:cap(stack)]
	for i := range stack {
		stack[i] = buFrame{}
	}
	sc.stack = stack[:0]
	buScratchPool.Put(sc)
	return result, steps, nil
}

// bottomUpIn1 is the traversal specialized for single-word kernels: the
// dominant serving shape (≤64 fused lanes). Constant-plane frames carry
// their CV/DV accumulators as two uint64 fields — the entire per-node
// evaluation is kern.EvalConstWord in registers plus two word ORs into the
// parent — and leaves never get a frame at all: a childless real node's V
// is computed from (CV, DV) = (0, 0) and folded straight into the frame on
// top of the stack. The variable plane (virtual children) falls back to
// the same per-lane arena body as the general path.
func bottomUpIn1(a *boolexpr.Arena, root *xmltree.Node, prog *xpath.Program, kern *xpath.LaneKernel, sc *buScratch) (Triplet, int64) {
	n := len(prog.Subs)
	var steps int64
	newIDs := func() []boolexpr.NodeID {
		for {
			k := len(sc.ids)
			if k == 0 {
				return make([]boolexpr.NodeID, n)
			}
			v := sc.ids[k-1]
			sc.ids = sc.ids[:k-1]
			if cap(v) >= n {
				return v[:n]
			}
		}
	}
	materialize := func(f *buFrame1) {
		f.cv, f.dv = newIDs(), newIDs()
		for i := 0; i < n; i++ {
			f.cv[i] = a.Const(f.cw>>uint(i)&1 == 1)
			f.dv[i] = a.Const(f.dw>>uint(i)&1 == 1)
		}
	}

	stack := append(sc.stack1[:0], buFrame1{node: root})
	var result Triplet

	// Leaf-plan memo: EvalLeafPlan is a pure function of the base self-test
	// word, and a document's leaves collapse to a handful of distinct bases
	// (most match no test at all). Direct-mapped, 4 slots, multiplicative
	// hash; a collision just recomputes.
	var (
		leafKey [4]uint64
		leafVal [4]uint64
		leafSet [4]bool
	)

	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		descended := false
		for f.next < len(f.node.Children) {
			c := f.node.Children[f.next]
			f.next++
			if c.Virtual {
				steps += int64(n)
				if f.cv == nil {
					materialize(f)
				}
				for i := 0; i < n; i++ {
					vVar := a.Var(boolexpr.Var{Frag: int32(c.Frag), Vec: boolexpr.VecV, Q: int32(i)})
					dVar := a.Var(boolexpr.Var{Frag: int32(c.Frag), Vec: boolexpr.VecDV, Q: int32(i)})
					f.cv[i] = a.Or2(f.cv[i], vVar)
					f.dv[i] = a.Or2(f.dv[i], dVar)
				}
				continue
			}
			if len(c.Children) == 0 {
				// Leaf: CV = DV = 0, and line 17 makes the leaf's outgoing
				// DV exactly its V.
				steps += int64(n)
				base := kern.LeafBase(c.Label, c.Text)
				s := (base * 0x9e3779b97f4a7c15) >> 62
				var vw uint64
				if leafSet[s] && leafKey[s] == base {
					vw = leafVal[s]
				} else {
					vw = kern.EvalLeafPlan(base)
					leafKey[s], leafVal[s], leafSet[s] = base, vw, true
				}
				if f.cv == nil {
					f.cw |= vw
					f.dw |= vw
				} else {
					orWordInto(f.cv, vw)
					orWordInto(f.dv, vw)
				}
				continue
			}
			stack = append(stack, buFrame1{node: c})
			descended = true
			break
		}
		if descended {
			continue
		}
		steps += int64(n)
		top := len(stack) - 1
		child := &stack[top] // stays valid: nothing appends before it's consumed
		stack = stack[:top]
		if child.cv == nil {
			vw := kern.EvalConstWord(child.cw, child.dw, child.node.Label, child.node.Text)
			dw := child.dw | vw
			if top == 0 {
				result = constTriplet1(a, n, vw, child.cw, dw)
				break
			}
			p := &stack[top-1]
			if p.cv == nil {
				p.cw |= vw // line 4 of bottomUp, the whole vector in one OR
				p.dw |= dw // line 5
			} else {
				orWordInto(p.cv, vw)
				orWordInto(p.dv, dw)
			}
		} else {
			v := newIDs()
			evalCasesArena(a, v, child.node, prog, child.cv, child.dv)
			if top == 0 {
				result = Triplet{A: a, V: v, CV: child.cv, DV: child.dv}
				break
			}
			p := &stack[top-1]
			if p.cv == nil {
				materialize(p)
			}
			for i := 0; i < n; i++ {
				p.cv[i] = a.Or2(p.cv[i], v[i])
				p.dv[i] = a.Or2(p.dv[i], child.dv[i])
			}
			sc.ids = append(sc.ids, v, child.cv, child.dv)
		}
	}
	stack = stack[:cap(stack)]
	for i := range stack {
		stack[i] = buFrame1{}
	}
	sc.stack1 = stack[:0]
	return result, steps
}

// orWordInto folds a single-word constant-plane vector into a
// variable-plane id vector: each set bit forces its entry to true.
func orWordInto(dst []boolexpr.NodeID, w uint64) {
	for ; w != 0; w &= w - 1 {
		dst[bits.TrailingZeros64(w)] = boolexpr.IDTrue
	}
}

// constTriplet1 is constTriplet from single-word vectors.
func constTriplet1(a *boolexpr.Arena, n int, vw, cw, dw uint64) Triplet {
	t := Triplet{
		A:  a,
		V:  make([]boolexpr.NodeID, n),
		CV: make([]boolexpr.NodeID, n),
		DV: make([]boolexpr.NodeID, n),
	}
	for i := 0; i < n; i++ {
		t.V[i] = a.Const(vw>>uint(i)&1 == 1)
		t.CV[i] = a.Const(cw>>uint(i)&1 == 1)
		t.DV[i] = a.Const(dw>>uint(i)&1 == 1)
	}
	return t
}

// constTriplet converts the root frame's bitsets into an all-constant
// triplet — the result shape of every virtual-free fragment.
func constTriplet(a *boolexpr.Arena, n int, v, cv, dv boolexpr.BitVec) Triplet {
	t := Triplet{
		A:  a,
		V:  make([]boolexpr.NodeID, n),
		CV: make([]boolexpr.NodeID, n),
		DV: make([]boolexpr.NodeID, n),
	}
	for i := int32(0); i < int32(n); i++ {
		t.V[i] = a.Const(v.Get(i))
		t.CV[i] = a.Const(cv.Get(i))
		t.DV[i] = a.Const(dv.Get(i))
	}
	return t
}

// orBitsInto folds a constant-plane child vector into a variable-plane
// parent vector: a set bit forces the entry to true, a clear bit is the OR
// identity and leaves it unchanged.
func orBitsInto(a *boolexpr.Arena, dst []boolexpr.NodeID, bits boolexpr.BitVec) {
	for i := int32(0); i < int32(len(dst)); i++ {
		if bits.Get(i) {
			dst[i] = boolexpr.IDTrue
		}
	}
}

// evalCasesBits is the constant-plane body of lines 6-17 of Procedure
// bottomUp: every connective is a bit test, every vector write a bit set.
// v must arrive zeroed. The dv write must happen inside the loop: a later
// subquery //q_i reads dv[i] and expects it to include V_v (the paper's
// left-to-right processing order).
func evalCasesBits(v boolexpr.BitVec, node *xmltree.Node, prog *xpath.Program, cv, dv boolexpr.BitVec) {
	for i, sq := range prog.Subs {
		var b bool
		switch sq.Kind {
		case xpath.KTrue: // (c0) ε
			b = true
		case xpath.KLabel: // (c1) label() = l
			b = node.Label == sq.Str
		case xpath.KText: // (c2) text() = str
			b = node.Text == sq.Str
		case xpath.KChild: // (c3) */q
			b = cv.Get(sq.A)
		case xpath.KFilter: // (c4) ε[q]/q'
			b = v.Get(sq.A) && (sq.B < 0 || v.Get(sq.B))
		case xpath.KDesc: // (c5) //q
			b = dv.Get(sq.A)
		case xpath.KOr: // (c6)
			b = v.Get(sq.A) || v.Get(sq.B)
		case xpath.KAnd: // (c7)
			b = v.Get(sq.A) && v.Get(sq.B)
		case xpath.KNot: // (c8)
			b = !v.Get(sq.A)
		default:
			panic(fmt.Sprintf("eval: unknown subquery kind %v", sq.Kind))
		}
		if b {
			v.Set(int32(i))
			dv.Set(int32(i)) // line 17
		}
	}
}

// evalCasesArena is the variable-plane body of lines 6-17, over interned
// arena ids.
func evalCasesArena(a *boolexpr.Arena, v []boolexpr.NodeID, node *xmltree.Node, prog *xpath.Program, cv, dv []boolexpr.NodeID) {
	for i, sq := range prog.Subs {
		var f boolexpr.NodeID
		switch sq.Kind {
		case xpath.KTrue: // (c0) ε
			f = boolexpr.IDTrue
		case xpath.KLabel: // (c1) label() = l
			f = a.Const(node.Label == sq.Str)
		case xpath.KText: // (c2) text() = str
			f = a.Const(node.Text == sq.Str)
		case xpath.KChild: // (c3) */q
			f = cv[sq.A]
		case xpath.KFilter: // (c4) ε[q]/q'
			f = v[sq.A]
			if sq.B >= 0 {
				f = a.And2(f, v[sq.B])
			}
		case xpath.KDesc: // (c5) //q
			f = dv[sq.A]
		case xpath.KOr: // (c6)
			f = a.Or2(v[sq.A], v[sq.B])
		case xpath.KAnd: // (c7)
			f = a.And2(v[sq.A], v[sq.B])
		case xpath.KNot: // (c8)
			f = a.Not(v[sq.A])
		default:
			panic(fmt.Sprintf("eval: unknown subquery kind %v", sq.Kind))
		}
		v[i] = f
		dv[i] = a.Or2(f, dv[i]) // line 17
	}
}

// Evaluate is the optimal centralized algorithm: one traversal of a
// complete (virtual-node-free) tree. It errors if the tree still contains
// virtual nodes, because then the answer is a residual formula, not a
// truth value. Over a complete tree the evaluation never leaves the
// constant plane: the whole run is bitwise arithmetic.
func Evaluate(root *xmltree.Node, prog *xpath.Program) (bool, int64, error) {
	t, steps, err := BottomUp(root, prog)
	if err != nil {
		return false, steps, err
	}
	defer PutArena(t.A)
	ans, ok := t.A.ConstValue(t.V[prog.Root()])
	if !ok {
		return false, steps, fmt.Errorf("eval: residual answer %v (tree has virtual nodes)", t.A.String(t.V[prog.Root()]))
	}
	return ans, steps, nil
}

// EvaluateAll runs BottomUp over every fragment of a forest, as the
// participating sites do in stage 2 of ParBoX (Procedure evalQual), and
// returns the triplets by fragment. Exposed for tests and the view layer;
// the distributed algorithms call BottomUp per site instead.
func EvaluateAll(f *frag.Forest, prog *xpath.Program) (map[xmltree.FragmentID]Triplet, int64, error) {
	out := make(map[xmltree.FragmentID]Triplet, f.Count())
	var total int64
	for _, id := range f.IDs() {
		fr, _ := f.Fragment(id)
		t, steps, err := BottomUp(fr.Root, prog)
		total += steps
		if err != nil {
			return nil, total, fmt.Errorf("fragment %d: %w", id, err)
		}
		out[id] = t
	}
	return out, total, nil
}
