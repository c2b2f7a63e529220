package boolexpr

import "fmt"

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
// evaluator. All constructors perform the same constant folding as the
// pointer-based Formula constructors, and additionally intern the result:
// building a formula that already exists returns its existing id without
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

// Op reports the top-level operator of x.
func (a *Arena) Op(x NodeID) Op { return a.nodes[x].op }

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

// VarOf returns the variable of an OpVar node; meaningless otherwise.
func (a *Arena) VarOf(x NodeID) Var { return a.vars[a.nodes[x].aux] }

// Operands returns the operand ids of an OpAnd/OpOr node, or the single
// operand of OpNot. The returned slice aliases arena storage and must not
// be modified or held across constructor calls.
func (a *Arena) Operands(x NodeID) []NodeID {
	n := a.nodes[x]
	switch n.op {
	case OpNot:
		return []NodeID{NodeID(n.aux)}
	case OpAnd, OpOr:
		return a.kids[n.aux : n.aux+n.nkid : n.aux+n.nkid]
	default:
		return nil
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
// and "same id" the same thing, so this subsumes the pointer evaluator's
// duplicate-variable elimination.
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
// occurrence), matching Formula.Size — the unit of the paper's
// communication bounds.
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

// --- conversion to/from the pointer representation -----------------------
//
// The pointer Formula is the differential reference only (eval/legacy.go
// and the tests that compare against it); nothing on a serving path
// exports or imports.

// Export converts x to an immutable pointer Formula. memo (keyed by id) may
// be shared across calls on the same arena so that shared subformulas
// export to shared pointers, keeping the exported DAG as compact as the
// arena's. Arena invariants match Formula invariants, so nodes are rebuilt
// directly without re-folding.
func (a *Arena) Export(x NodeID, memo map[NodeID]*Formula) *Formula {
	switch x {
	case IDFalse:
		return falseF
	case IDTrue:
		return trueF
	}
	if memo != nil {
		if f, ok := memo[x]; ok {
			return f
		}
	}
	n := a.nodes[x]
	var f *Formula
	switch n.op {
	case OpVar:
		f = &Formula{op: OpVar, v: a.vars[n.aux]}
	case OpNot:
		f = &Formula{op: OpNot, kids: []*Formula{a.Export(NodeID(n.aux), memo)}}
	case OpAnd, OpOr:
		ks := make([]*Formula, n.nkid)
		for i, k := range a.kids[n.aux : n.aux+n.nkid] {
			ks[i] = a.Export(k, memo)
		}
		f = &Formula{op: n.op, kids: ks}
	default:
		panic(fmt.Sprintf("boolexpr: unknown Op %d", n.op))
	}
	if memo != nil {
		memo[x] = f
	}
	return f
}

// Import interns a pointer Formula into the arena. memo (keyed by formula
// pointer) may be shared across calls so DAG-shaped inputs import in one
// pass; structurally equal formulas intern to the same id regardless.
func (a *Arena) Import(f *Formula, memo map[*Formula]NodeID) NodeID {
	switch f.op {
	case OpFalse:
		return IDFalse
	case OpTrue:
		return IDTrue
	}
	if memo != nil {
		if id, ok := memo[f]; ok {
			return id
		}
	}
	var id NodeID
	switch f.op {
	case OpVar:
		id = a.Var(f.v)
	case OpNot:
		id = a.Not(a.Import(f.kids[0], memo))
	case OpAnd, OpOr:
		ks := make([]NodeID, len(f.kids))
		for i, k := range f.kids {
			ks[i] = a.Import(k, memo)
		}
		id = a.combine(f.op, ks)
	default:
		panic(fmt.Sprintf("boolexpr: unknown Op %d", f.op))
	}
	if memo != nil {
		memo[f] = id
	}
	return id
}

// String renders x, for tests and debugging.
func (a *Arena) String(x NodeID) string { return a.Export(x, nil).String() }
