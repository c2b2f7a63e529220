package eval

import (
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// This file implements the spine recomputation kernel for incremental
// triplet maintenance (the update half of Section 5): after an in-place
// edit inside a fragment, the Boolean formulas of Procedure bottomUp can
// only change on the touched-node-to-root spines, so re-evaluating those
// O(depth + changed) nodes — instead of the whole fragment — reproduces
// the fragment's triplet exactly.
//
// The kernel applies on the dominant serving shape: a virtual-free
// fragment under a single-word lane kernel (≤64 fused lanes). There the
// whole per-node state of bottomUp is two machine words — the node's V
// word and its outgoing DV word — so a Plane (the per-node word map) is
// a few bytes per node and a spine step is one table OR over the
// children plus one kern.EvalConstWord. The recurrence is bit-for-bit
// the one bottomUpIn1 runs:
//
//	cw   = OR of the children's V words
//	dwIn = OR of the children's outgoing DV words
//	vw   = kern.EvalConstWord(cw, dwIn, label, text)
//	dwOut = dwIn | vw            (line 17 of Procedure bottomUp)
//
// so a patched plane's root words — and the triplet encoded from them —
// are byte-equal to a from-scratch recomputation (FuzzSpinePatch pins
// this differentially).

// planeWords is the retained bottomUp state of one node: its V word and
// its outgoing DV word (subtree DV including the node's own V).
type planeWords struct {
	vw, dw uint64
}

// Plane is the per-node formula plane of one (fragment, program) pair,
// keyed by node identity. It is valid only for the exact tree it was
// built from (in-place mutations keep node pointers stable; a reloaded
// or re-fragmented tree needs a rebuild — compare Root()).
//
// A Plane is not safe for concurrent use; the maintenance layer holds
// the fragment's write lock (cluster.Site.EditFragment) across Patch.
type Plane struct {
	kern  *xpath.LaneKernel
	lanes int
	root  *xmltree.Node
	nodes map[*xmltree.Node]planeWords
}

// BuildPlane computes the full per-node plane for the fragment rooted at
// root under prog, in one bottom-up traversal. ok is false when the
// fragment is outside the kernel's domain — a virtual node present, or a
// program wider than one word — in which case maintenance falls back to
// full recomputation.
func BuildPlane(root *xmltree.Node, prog *xpath.Program) (p *Plane, steps int64, ok bool) {
	kern := prog.Kernel()
	if root == nil || root.Virtual || kern == nil || kern.Words() != 1 {
		return nil, 0, false
	}
	p = &Plane{
		kern:  kern,
		lanes: len(prog.Subs),
		root:  root,
		nodes: make(map[*xmltree.Node]planeWords, root.Size()),
	}
	steps, ok = p.evalSubtree(root)
	if !ok {
		return nil, steps, false
	}
	return p, steps, true
}

// Root returns the fragment root the plane was built from; callers
// validate it against the live fragment before patching.
func (p *Plane) Root() *xmltree.Node { return p.root }

// Len returns the number of nodes the plane holds words for.
func (p *Plane) Len() int { return len(p.nodes) }

// evalSubtree evaluates every node of the subtree rooted at n into the
// plane, iteratively (deep fragments must not overflow the stack). ok is
// false on the first virtual node.
func (p *Plane) evalSubtree(n *xmltree.Node) (steps int64, ok bool) {
	type frame struct {
		node *xmltree.Node
		next int
	}
	stack := []frame{{node: n}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		descended := false
		for f.next < len(f.node.Children) {
			c := f.node.Children[f.next]
			f.next++
			if c.Virtual {
				return steps, false
			}
			stack = append(stack, frame{node: c})
			descended = true
			break
		}
		if descended {
			continue
		}
		node := f.node
		stack = stack[:len(stack)-1]
		steps += int64(p.lanes)
		var cw, dw uint64
		for _, c := range node.Children {
			e := p.nodes[c]
			cw |= e.vw
			dw |= e.dw
		}
		vw := p.kern.EvalConstWord(cw, dw, node.Label, node.Text)
		p.nodes[node] = planeWords{vw: vw, dw: dw | vw}
	}
	return steps, true
}

// RootWords returns the plane's current root triplet words (V, CV, DV) —
// the single-word form of the fragment's triplet.
func (p *Plane) RootWords() (vw, cw, dw uint64) {
	e := p.nodes[p.root]
	for _, c := range p.root.Children {
		cw |= p.nodes[c].vw
	}
	return e.vw, cw, e.dw
}

// Patch recomputes the plane after a batch of in-place edits, walking
// only the touched-node-to-root spines:
//
//   - fresh: roots of newly inserted subtrees, evaluated from scratch
//     (an insNode subtree costs its own size, nothing more);
//   - dirty: nodes whose evaluation inputs changed in place — a setText
//     target, or the parent a child was inserted under or deleted from;
//   - removed: roots of detached subtrees, whose entries are pruned.
//
// Every proper ancestor of a fresh or dirty node is re-evaluated from
// its children's retained words, deepest first, so the total work is
// O(depth·fanout + inserted) node evaluations. ok is false when the
// patch left the kernel's domain (a virtual node appeared, or a node's
// children are unknown to the plane — a stale plane); the caller must
// then discard the plane and recompute in full.
func (p *Plane) Patch(fresh, dirty, removed []*xmltree.Node) (steps int64, ok bool) {
	for _, r := range removed {
		r.Walk(func(n *xmltree.Node) { delete(p.nodes, n) })
	}
	for _, r := range fresh {
		s, ok := p.evalSubtree(r)
		steps += s
		if !ok {
			return steps, false
		}
	}
	// The recompute set: dirty nodes plus every proper ancestor of a
	// fresh or dirty node, deduped, ordered deepest first so children's
	// words are final before a parent reads them.
	type spineNode struct {
		node  *xmltree.Node
		depth int
	}
	depthOf := func(n *xmltree.Node) int {
		d := 0
		for m := n; m.Parent != nil; m = m.Parent {
			d++
		}
		return d
	}
	seen := make(map[*xmltree.Node]bool, 2*len(dirty)+2*len(fresh))
	var spine []spineNode
	add := func(n *xmltree.Node) {
		if !seen[n] {
			seen[n] = true
			spine = append(spine, spineNode{node: n, depth: depthOf(n)})
		}
	}
	for _, n := range dirty {
		add(n)
		for m := n.Parent; m != nil; m = m.Parent {
			add(m)
		}
	}
	for _, n := range fresh {
		for m := n.Parent; m != nil; m = m.Parent {
			add(m)
		}
	}
	// Insertion sort by descending depth: spines are short (O(depth))
	// and arrive nearly sorted (each chain is emitted root-ward).
	for i := 1; i < len(spine); i++ {
		for j := i; j > 0 && spine[j].depth > spine[j-1].depth; j-- {
			spine[j], spine[j-1] = spine[j-1], spine[j]
		}
	}
	for _, sn := range spine {
		node := sn.node
		if node.Virtual {
			return steps, false
		}
		steps += int64(p.lanes)
		var cw, dw uint64
		for _, c := range node.Children {
			if c.Virtual {
				return steps, false
			}
			e, present := p.nodes[c]
			if !present {
				return steps, false
			}
			cw |= e.vw
			dw |= e.dw
		}
		vw := p.kern.EvalConstWord(cw, dw, node.Label, node.Text)
		p.nodes[node] = planeWords{vw: vw, dw: dw | vw}
	}
	return steps, true
}

// ConstTriplet materializes the single-word root words as an all-constant
// triplet — the same shape (and therefore the same encoding) a full
// BottomUp produces for a virtual-free fragment — bound, like BottomUp's,
// to a pooled arena of its own (see PutArena).
func ConstTriplet(n int, vw, cw, dw uint64) Triplet {
	return constTriplet1(GetArena(), n, vw, cw, dw)
}

// TripletDelta reports which lanes flipped at a fragment root after an
// update: the XOR of the old and new root words of each vector. The zero
// delta is the maintenance short-circuit — the update cannot change any
// cached query answer.
type TripletDelta struct {
	V, CV, DV uint64
}

// Zero reports whether no lane flipped.
func (d TripletDelta) Zero() bool { return d.V == 0 && d.CV == 0 && d.DV == 0 }
