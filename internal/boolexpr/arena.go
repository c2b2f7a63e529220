package boolexpr

import (
	"fmt"
	"strings"
)

// NodeID names one formula node inside an Arena. The two constants are
// pre-interned at fixed positions, so constant tests are integer compares.
// Because the arena hash-conses every constructor, structurally equal
// formulas of the same arena always have the same NodeID: equality is O(1)
// and substitution can memoize by id.
type NodeID int32

const (
	// IDFalse is the constant false in every arena.
	IDFalse NodeID = 0
	// IDTrue is the constant true in every arena.
	IDTrue NodeID = 1
)

// arenaNode is one interned node: 12 bytes instead of a 48-byte Formula
// plus a separate operand slice. Operand lists of AND/OR nodes live
// contiguously in the arena's shared kids slice.
type arenaNode struct {
	op   Op
	nkid int32 // OpAnd/OpOr: operand count; OpNot: 1; leaves: 0
	aux  int32 // OpVar: index into vars; OpNot: operand NodeID; OpAnd/OpOr: offset into kids
}

// Arena is a hash-consed formula store — the "variable plane" of the
// evaluator. All constructors fold constants, eliminate double negation,
// and flatten and dedupe AND/OR operands, and intern the result: building
// a formula that already exists returns its existing id without
// allocating. An Arena is meant to live for one evaluation (one bottomUp
// pass, one solve of the equation system) and be discarded wholesale; it is
// not safe for concurrent use.
type Arena struct {
	nodes  []arenaNode
	kids   []NodeID
	vars   []Var
	varIDs map[Var]NodeID
	intern map[uint64][]NodeID

	// Subst memoization: memo[x] holds the substitution result for node x
	// when memoGen[x] equals the current generation. NewGen invalidates the
	// whole table in O(1) by bumping gen.
	memo    []NodeID
	memoGen []uint32
	gen     uint32

	scratch []NodeID // reusable operand buffer for combine
	// substKids is the stack-disciplined rewrite buffer of subst: each
	// AND/OR frame stages its rewritten operands here instead of
	// allocating a fresh slice per node.
	substKids []NodeID
}

// NewArena returns an arena holding only the two constants.
func NewArena() *Arena {
	return &Arena{
		nodes:  []arenaNode{{op: OpFalse}, {op: OpTrue}},
		varIDs: make(map[Var]NodeID),
		intern: make(map[uint64][]NodeID),
		gen:    1,
	}
}

// Len returns the number of distinct nodes interned so far.
func (a *Arena) Len() int { return len(a.nodes) }

// Reset returns the arena to its freshly constructed state while retaining
// every piece of allocated storage — node/operand/var slabs, intern map
// buckets, the Subst memo table and rewrite buffers — so pooled arenas let
// steady-state evaluation rounds run without re-growing any of it. All
// NodeIDs handed out before the Reset are invalidated.
func (a *Arena) Reset() {
	a.nodes = append(a.nodes[:0], arenaNode{op: OpFalse}, arenaNode{op: OpTrue})
	a.kids = a.kids[:0]
	a.vars = a.vars[:0]
	clear(a.varIDs)
	clear(a.intern)
	// Bumping the generation invalidates every memo entry in O(1); the
	// memo/memoGen tables keep their capacity for the next tenant.
	a.gen++
	a.scratch = a.scratch[:0]
	a.substKids = a.substKids[:0]
}

// Const returns the id of the constant b.
func (a *Arena) Const(b bool) NodeID {
	if b {
		return IDTrue
	}
	return IDFalse
}

// IsConst reports whether x is a constant.
func (a *Arena) IsConst(x NodeID) bool { return x == IDFalse || x == IDTrue }

// ConstValue returns the value of a constant node and whether x is constant.
func (a *Arena) ConstValue(x NodeID) (value, ok bool) {
	switch x {
	case IDTrue:
		return true, true
	case IDFalse:
		return false, true
	default:
		return false, false
	}
}

// --- hashing / interning -------------------------------------------------

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h uint64, v uint32) uint64 {
	h ^= uint64(v)
	return h * fnvPrime
}

// Var interns a variable leaf.
func (a *Arena) Var(v Var) NodeID {
	if id, ok := a.varIDs[v]; ok {
		return id
	}
	id := NodeID(len(a.nodes))
	a.nodes = append(a.nodes, arenaNode{op: OpVar, aux: int32(len(a.vars))})
	a.vars = append(a.vars, v)
	a.varIDs[v] = id
	return id
}

// Not returns ¬x with constant folding and double-negation elimination.
func (a *Arena) Not(x NodeID) NodeID {
	switch x {
	case IDTrue:
		return IDFalse
	case IDFalse:
		return IDTrue
	}
	if n := a.nodes[x]; n.op == OpNot {
		return NodeID(n.aux)
	}
	h := fnvMix(fnvMix(fnvOffset, uint32(OpNot)), uint32(x))
	for _, id := range a.intern[h] {
		if n := a.nodes[id]; n.op == OpNot && NodeID(n.aux) == x {
			return id
		}
	}
	id := NodeID(len(a.nodes))
	a.nodes = append(a.nodes, arenaNode{op: OpNot, nkid: 1, aux: int32(x)})
	a.intern[h] = append(a.intern[h], id)
	return id
}

// And2 is the binary conjunction fast path (the shape Procedure bottomUp
// and compFm always produce).
func (a *Arena) And2(x, y NodeID) NodeID {
	if x == IDFalse || y == IDFalse {
		return IDFalse
	}
	if x == IDTrue {
		return y
	}
	if y == IDTrue {
		return x
	}
	if x == y {
		return x
	}
	var pair [2]NodeID
	pair[0], pair[1] = x, y
	return a.combine(OpAnd, pair[:])
}

// Or2 is the binary disjunction fast path.
func (a *Arena) Or2(x, y NodeID) NodeID {
	if x == IDTrue || y == IDTrue {
		return IDTrue
	}
	if x == IDFalse {
		return y
	}
	if y == IDFalse {
		return x
	}
	if x == y {
		return x
	}
	var pair [2]NodeID
	pair[0], pair[1] = x, y
	return a.combine(OpOr, pair[:])
}

// And returns the n-ary conjunction of xs with folding and flattening.
func (a *Arena) And(xs ...NodeID) NodeID {
	if len(xs) == 2 {
		return a.And2(xs[0], xs[1])
	}
	return a.combine(OpAnd, xs)
}

// Or returns the n-ary disjunction of xs with folding and flattening.
func (a *Arena) Or(xs ...NodeID) NodeID {
	if len(xs) == 2 {
		return a.Or2(xs[0], xs[1])
	}
	return a.combine(OpOr, xs)
}

// combine folds, flattens and dedupes the operand list, then interns the
// node. Because constructors maintain the invariant that an AND/OR child is
// never the same operator, flattening needs only one level. Duplicate
// operands are dropped by id — hash-consing makes "structurally equal"
// and "same id" the same thing.
func (a *Arena) combine(op Op, xs []NodeID) NodeID {
	absorb, identity := IDFalse, IDTrue
	if op == OpOr {
		absorb, identity = IDTrue, IDFalse
	}
	out := a.scratch[:0]
	var seen map[NodeID]bool // allocated only for wide operand lists
	add := func(x NodeID) bool {
		if x == absorb {
			return true
		}
		if x == identity {
			return false
		}
		if len(out) < 16 {
			for _, o := range out {
				if o == x {
					return false
				}
			}
		} else {
			if seen == nil {
				seen = make(map[NodeID]bool, 2*len(out))
				for _, o := range out {
					seen[o] = true
				}
			}
			if seen[x] {
				return false
			}
			seen[x] = true
		}
		out = append(out, x)
		return false
	}
	for _, x := range xs {
		if n := a.nodes[x]; n.op == op {
			for _, k := range a.kids[n.aux : n.aux+n.nkid] {
				if add(k) {
					a.scratch = out[:0]
					return absorb
				}
			}
			continue
		}
		if add(x) {
			a.scratch = out[:0]
			return absorb
		}
	}
	a.scratch = out[:0]
	switch len(out) {
	case 0:
		return identity
	case 1:
		return out[0]
	}
	h := fnvMix(fnvOffset, uint32(op))
	for _, k := range out {
		h = fnvMix(h, uint32(k))
	}
bucket:
	for _, id := range a.intern[h] {
		n := a.nodes[id]
		if n.op != op || int(n.nkid) != len(out) {
			continue
		}
		for i, k := range a.kids[n.aux : n.aux+n.nkid] {
			if k != out[i] {
				continue bucket
			}
		}
		return id
	}
	id := NodeID(len(a.nodes))
	a.nodes = append(a.nodes, arenaNode{op: op, nkid: int32(len(out)), aux: int32(len(a.kids))})
	a.kids = append(a.kids, out...)
	a.intern[h] = append(a.intern[h], id)
	return id
}

// CompFm is Procedure compFm over arena ids.
func (a *Arena) CompFm(x, y NodeID, op BinOp) NodeID {
	switch op {
	case NEG:
		return a.Not(x)
	case AND:
		return a.And2(x, y)
	case OR:
		return a.Or2(x, y)
	default:
		panic(fmt.Sprintf("boolexpr: unknown BinOp %d", op))
	}
}

// --- evaluation / substitution -------------------------------------------

// Eval evaluates x under a total assignment.
func (a *Arena) Eval(x NodeID, env func(Var) bool) bool {
	n := a.nodes[x]
	switch n.op {
	case OpTrue:
		return true
	case OpFalse:
		return false
	case OpVar:
		return env(a.vars[n.aux])
	case OpNot:
		return !a.Eval(NodeID(n.aux), env)
	case OpAnd:
		for _, k := range a.kids[n.aux : n.aux+n.nkid] {
			if !a.Eval(k, env) {
				return false
			}
		}
		return true
	case OpOr:
		for _, k := range a.kids[n.aux : n.aux+n.nkid] {
			if a.Eval(k, env) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("boolexpr: unknown Op %d", n.op))
	}
}

// NewGen starts a fresh substitution environment generation, invalidating
// the Subst memo table in O(1). Call it whenever the environment changes;
// all Subst calls sharing a generation must share the environment.
func (a *Arena) NewGen() { a.gen++ }

// Subst substitutes variables for which lookup returns ok, folding
// constants as it goes. Results are memoized by (node id, generation):
// shared subformulas — which hash-consing makes common by construction —
// are rewritten once per generation instead of once per occurrence. This is
// what turns Procedure evalST's repeated unification of one fragment's
// vectors from O(entries · |formula|) re-walks into a single walk of the
// fragment's formula DAG.
func (a *Arena) Subst(x NodeID, lookup func(Var) (NodeID, bool)) NodeID {
	if len(a.memo) < len(a.nodes) {
		grown := make([]NodeID, len(a.nodes))
		copy(grown, a.memo)
		a.memo = grown
		grownGen := make([]uint32, len(a.nodes))
		copy(grownGen, a.memoGen)
		a.memoGen = grownGen
	}
	return a.subst(x, lookup)
}

func (a *Arena) subst(x NodeID, lookup func(Var) (NodeID, bool)) NodeID {
	n := a.nodes[x]
	switch n.op {
	case OpTrue, OpFalse:
		return x
	case OpVar:
		if g, ok := lookup(a.vars[n.aux]); ok {
			return g
		}
		return x
	}
	if a.memoGen[x] == a.gen {
		return a.memo[x]
	}
	var out NodeID
	switch n.op {
	case OpNot:
		k := a.subst(NodeID(n.aux), lookup)
		if k == NodeID(n.aux) {
			out = x
		} else {
			out = a.Not(k)
		}
	case OpAnd, OpOr:
		changed := false
		base := len(a.substKids)
		for i := int32(0); i < n.nkid; i++ {
			// Re-read the operand through a.kids each iteration: nested
			// subst calls may grow (and so reallocate) the kids slice.
			k := a.kids[n.aux+i]
			nk := a.subst(k, lookup)
			if nk != k {
				changed = true
			}
			a.substKids = append(a.substKids, nk)
		}
		ks := a.substKids[base:]
		switch {
		case !changed:
			out = x
		case n.op == OpAnd:
			out = a.combine(OpAnd, ks)
		default:
			out = a.combine(OpOr, ks)
		}
		a.substKids = a.substKids[:base]
	default:
		panic(fmt.Sprintf("boolexpr: unknown Op %d", n.op))
	}
	a.memo[x] = out
	a.memoGen[x] = a.gen
	return out
}

// Size returns the tree size of x (shared subformulas counted per
// occurrence) — the unit of the paper's communication bounds.
func (a *Arena) Size(x NodeID) int {
	n := a.nodes[x]
	switch n.op {
	case OpNot:
		return 1 + a.Size(NodeID(n.aux))
	case OpAnd, OpOr:
		s := 1
		for _, k := range a.kids[n.aux : n.aux+n.nkid] {
			s += a.Size(k)
		}
		return s
	default:
		return 1
	}
}

// Vars calls visit for every variable occurrence in x (duplicates included).
func (a *Arena) Vars(x NodeID, visit func(Var)) {
	n := a.nodes[x]
	switch n.op {
	case OpVar:
		visit(a.vars[n.aux])
	case OpNot:
		a.Vars(NodeID(n.aux), visit)
	case OpAnd, OpOr:
		for _, k := range a.kids[n.aux : n.aux+n.nkid] {
			a.Vars(k, visit)
		}
	}
}

// Copy interns node x of arena src into a and returns its id there. It is
// the one arena-to-arena move: a solve that gathers triplets computed in
// separate arenas, and the compaction of a long-lived arena into a fresh
// one, both go through it. memo (keyed by src id) may be shared across
// calls for the same src so a shared subformula is copied once; nil
// disables memoization. Arena invariants hold in src, so re-combining in a
// only re-interns — the copy is structurally identical to the original.
func (a *Arena) Copy(src *Arena, x NodeID, memo map[NodeID]NodeID) NodeID {
	if x == IDFalse || x == IDTrue {
		return x
	}
	if id, ok := memo[x]; ok {
		return id
	}
	n := src.nodes[x]
	var id NodeID
	switch n.op {
	case OpVar:
		id = a.Var(src.vars[n.aux])
	case OpNot:
		id = a.Not(a.Copy(src, NodeID(n.aux), memo))
	case OpAnd, OpOr:
		ks := make([]NodeID, n.nkid)
		for i, k := range src.kids[n.aux : n.aux+n.nkid] {
			ks[i] = a.Copy(src, k, memo)
		}
		id = a.combine(n.op, ks)
	default:
		panic(fmt.Sprintf("boolexpr: unknown Op %d", n.op))
	}
	if memo != nil {
		memo[x] = id
	}
	return id
}

// String renders x with !, & and | and minimal parentheses, for error
// messages and tests.
func (a *Arena) String(x NodeID) string {
	var b strings.Builder
	a.write(&b, x, 0)
	return b.String()
}

// write renders x under a parent of precedence parent: Or 1, And 2, Not 3,
// leaves 4.
func (a *Arena) write(b *strings.Builder, x NodeID, parent int) {
	n := a.nodes[x]
	prec, sep := 4, ""
	switch n.op {
	case OpOr:
		prec, sep = 1, " | "
	case OpAnd:
		prec, sep = 2, " & "
	case OpNot:
		prec = 3
	}
	if prec < parent {
		b.WriteByte('(')
	}
	switch n.op {
	case OpFalse:
		b.WriteByte('0')
	case OpTrue:
		b.WriteByte('1')
	case OpVar:
		b.WriteString(a.vars[n.aux].String())
	case OpNot:
		b.WriteByte('!')
		a.write(b, NodeID(n.aux), prec+1)
	default:
		for i, k := range a.kids[n.aux : n.aux+n.nkid] {
			if i > 0 {
				b.WriteString(sep)
			}
			a.write(b, k, prec)
		}
	}
	if prec < parent {
		b.WriteByte(')')
	}
}
