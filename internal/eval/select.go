package eval

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Selection evaluation (the Section 8 extension). Visit 2 of SelectParBoX
// runs two sweeps over a fragment:
//
//  1. a bottom-up sweep evaluating the guard program at every node on the
//     program's own lane kernel — virtual nodes contribute the (now known,
//     constant) V/DV words of their sub-fragments, so guards are plain
//     booleans — into a flat guard-mask array indexed by preorder position;
//  2. a top-down sweep propagating the chain's NFA states. The states that
//     will arrive at the fragment root are not known yet, so the sweep
//     runs on tags instead (partial evaluation with the arrival bits as the
//     unknowns): every state carries the set of arrival bits that bring it
//     to the node. A node reached in the final state is a candidate tagged
//     with that set; the tags reaching a virtual node are the sub-fragment's
//     arrival as a function of this fragment's.
//
// Propagation is a union-homomorphism in the arrival (every arriving state
// propagates on its own, and guards do not depend on arrival), so once the
// arrival a is known, a candidate is selected iff a meets its tag and a
// sub-fragment receives, bit by bit, the union of the tags a meets.

// BoolVecs carries the resolved (constant) V and DV vectors of a
// sub-fragment, produced by solving the pass-1 equation system.
type BoolVecs struct {
	V, DV []bool
}

// Arrival is the NFA state set crossing a fragment boundary. The same
// shape doubles as a tag: a set of arrival bits.
type Arrival struct {
	// States has bit i set when chain step i is a candidate to match at
	// the fragment root.
	States uint64
	// Sticky marks descendant-or-self states, which keep propagating to
	// every node below.
	Sticky uint64
}

// StartArrival is the machine's start at the document root.
func StartArrival() Arrival { return Arrival{States: 1} }

// Meets reports whether the arrival a shares a bit with tag.
func (a Arrival) Meets(tag Arrival) bool { return a.States&tag.States|a.Sticky&tag.Sticky != 0 }

// IsZero reports an empty arrival (no live state).
func (a Arrival) IsZero() bool { return a.States|a.Sticky == 0 }

func (a Arrival) or(b Arrival) Arrival {
	return Arrival{States: a.States | b.States, Sticky: a.Sticky | b.Sticky}
}

// ArrivalDomain is the set of arrival bits a fragment below the document
// root can receive under sp: a state crosses into a child only by a child
// or descendant-or-self move, and only a descendant-or-self state is
// sticky. The document-root fragment receives exactly StartArrival.
func ArrivalDomain(sp *xpath.SelectProgram) Arrival {
	var d Arrival
	for j, s := range sp.Chain {
		switch s.Kind {
		case xpath.SChild:
			d.States |= 1 << j
		case xpath.SDescOrSelf:
			d.States |= 1 << j
			d.Sticky |= 1 << j
		}
	}
	return d
}

// ArrivalTransfer is a sub-fragment's arrival as a function of its
// parent fragment's: bit j of the result's States is set iff the parent's
// arrival meets States[j], likewise Sticky. Both slices are indexed by
// chain position.
type ArrivalTransfer struct {
	States, Sticky []Arrival
}

// Apply evaluates the transfer at a known arrival.
func (t ArrivalTransfer) Apply(in Arrival) Arrival {
	var out Arrival
	for j, tag := range t.States {
		if in.Meets(tag) {
			out.States |= 1 << j
		}
	}
	for j, tag := range t.Sticky {
		if in.Meets(tag) {
			out.Sticky |= 1 << j
		}
	}
	return out
}

// Transfer is one fragment's visit-2 outcome before its arrival is known.
type Transfer struct {
	// Forward is, per sub-fragment some tag reaches, its arrival transfer.
	Forward map[xmltree.FragmentID]ArrivalTransfer
	// Cands are the candidates grouped by tag, one group per distinct tag.
	Cands []Candidates
	// Steps is the computation performed (node×subquery units for the
	// guard sweep plus one unit per node the tag sweep visits).
	Steps int64
}

// Candidates are the candidates of a fragment that carry one tag.
type Candidates struct {
	Tag   Arrival
	Count int64
	// Paths are the candidates as child-index paths from the fragment
	// root, in document order. Filled (Count of them) only when
	// SelectTransfer was asked for paths.
	Paths [][]int
}

// Select returns what an arrival in keeps of the candidates: their
// number and, when the transfer holds paths, the paths in document order.
func (t *Transfer) Select(in Arrival) ([][]int, int64) {
	var sel [][]int
	var n int64
	groups := 0
	for _, g := range t.Cands {
		if !in.Meets(g.Tag) {
			continue
		}
		n += g.Count
		if len(g.Paths) > 0 {
			groups++
			sel = append(slices.Clip(sel), g.Paths...)
		}
	}
	if groups > 1 {
		// Child-index paths compare lexicographically in document order:
		// an ancestor's path is a prefix of its descendants'.
		slices.SortFunc(sel, slices.Compare[[]int])
	}
	return sel, n
}

// SelectResult is one fragment's selection at a known arrival.
type SelectResult struct {
	// Selected are the selected nodes, as child-index paths from the
	// fragment root (in document order, duplicates removed).
	Selected [][]int
	// Forward holds the arrivals for each sub-fragment whose virtual node
	// was reached by live states.
	Forward map[xmltree.FragmentID]Arrival
	// Steps is the computation performed (node×subquery units plus one
	// unit per node for the top-down sweep).
	Steps int64
}

// SelectFragment runs both sweeps over one fragment whose arrival in is
// known: SelectTransfer over the domain in, evaluated at in. subVals must
// contain the resolved vectors for every sub-fragment referenced by the
// fragment's virtual nodes.
func SelectFragment(root *xmltree.Node, sp *xpath.SelectProgram,
	subVals map[xmltree.FragmentID]BoolVecs, in Arrival) (SelectResult, error) {
	t, err := SelectTransfer(root, sp, subVals, in, true)
	if err != nil {
		return SelectResult{}, err
	}
	// Over the domain in every tag is a nonempty subset of in: all
	// candidates are selected and every transfer is evaluated at in.
	sel, _ := t.Select(in)
	res := SelectResult{Selected: sel, Forward: make(map[xmltree.FragmentID]Arrival, len(t.Forward)), Steps: t.Steps}
	for c, tr := range t.Forward {
		if arr := tr.Apply(in); !arr.IsZero() {
			res.Forward[c] = arr
		}
	}
	return res, nil
}

// selScratch is the pooled workspace of SelectTransfer: the per-node
// guard masks and subtree sizes by preorder position, the bottom-up
// accumulators by depth, and the tag sweep's per-depth tag slots.
type selScratch struct {
	masks []uint64
	size  []int32
	acc   []uint64 // 2·words per depth: the frame's CV then DV
	v     []uint64 // one node's V, multi-word kernels
	up    []upFrame
	down  []downFrame
	slots []Arrival // 2·len(chain) per depth: States tags then Sticky tags
	tags  []Arrival // 3·len(chain): one node's state, sticky and child-move tags
	path  []int
}

type upFrame struct {
	node *xmltree.Node
	next int
	idx  int32
}

type downFrame struct {
	node  *xmltree.Node
	next  int
	idx   int32 // preorder position of the next child
	depth int
}

var selScratchPool = sync.Pool{New: func() any { return new(selScratch) }}

// grow returns s resized to n, reusing its storage when it is big enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// SelectTransfer runs visit 2 over one fragment for every arrival in
// domain at once: the result says, per arrival bit, what reaches each
// sub-fragment and which candidates it selects. paths asks for the
// candidates' paths, each with its tag (ModeSelect); without it only
// their count per tag is kept (ModeCount).
func SelectTransfer(root *xmltree.Node, sp *xpath.SelectProgram,
	subVals map[xmltree.FragmentID]BoolVecs, domain Arrival, paths bool) (Transfer, error) {
	if root == nil || root.Virtual {
		return Transfer{}, errors.New("eval: bad fragment root")
	}
	sc := selScratchPool.Get().(*selScratch)
	defer selScratchPool.Put(sc)
	steps, err := sc.guardMasks(root, sp, subVals)
	if err != nil {
		return Transfer{}, err
	}
	t := sc.propagate(root, sp, domain, paths)
	t.Steps += steps
	return t, nil
}

// guardMasks evaluates the guard program bottom-up at every node on its
// lane kernel and stores, per preorder position, the bitmask over chain
// positions whose guard holds there (untested steps are always set), and
// the subtree size. Virtual nodes take a position (mask 0, size 1) and fold
// their sub-fragment's resolved V and DV into the parent.
func (sc *selScratch) guardMasks(root *xmltree.Node, sp *xpath.SelectProgram, subVals map[xmltree.FragmentID]BoolVecs) (int64, error) {
	n := len(sp.Bool.Subs)
	kern := sp.Bool.Kernel()
	words := kern.Words()
	var untested uint64
	for i, s := range sp.Chain {
		if s.Test < 0 {
			untested |= 1 << i
		}
	}
	maskOf := func(v []uint64) uint64 {
		m := untested
		for i, s := range sp.Chain {
			if s.Test >= 0 && v[s.Test>>6]>>(s.Test&63)&1 == 1 {
				m |= 1 << i
			}
		}
		return m
	}
	// frameAcc returns the CV and DV words of the frame at depth d.
	frameAcc := func(d int) (cv, dv []uint64) {
		off := 2 * words * d
		if need := off + 2*words; need > len(sc.acc) {
			sc.acc = append(sc.acc, make([]uint64, need-len(sc.acc))...)
		}
		return sc.acc[off : off+words], sc.acc[off+words : off+2*words]
	}
	resetAcc := func(d int) {
		cv, dv := frameAcc(d)
		clear(cv)
		clear(dv)
	}
	sc.masks, sc.size = sc.masks[:0], sc.size[:0]
	sc.v = grow(sc.v, words)
	// newPos appends a preorder position; its mask and size are written
	// when the node is evaluated.
	newPos := func() int32 {
		sc.masks = append(sc.masks, 0)
		sc.size = append(sc.size, 1)
		return int32(len(sc.masks) - 1)
	}
	var leaves leafMemo
	var steps int64
	stack := append(sc.up[:0], upFrame{node: root, idx: newPos()})
	resetAcc(0)
	defer func() {
		clear(stack[:cap(stack)])
		sc.up = stack[:0]
	}()
	for len(stack) > 0 {
		top := len(stack) - 1
		f := &stack[top]
		descended := false
		for f.next < len(f.node.Children) {
			c := f.node.Children[f.next]
			f.next++
			if c.Virtual {
				newPos()
				steps += int64(n)
				sv, ok := subVals[c.Frag]
				if !ok || len(sv.V) != n || len(sv.DV) != n {
					return steps, fmt.Errorf("eval: missing resolved vectors for sub-fragment %d", c.Frag)
				}
				cv, dv := frameAcc(top)
				for i := 0; i < n; i++ {
					if sv.V[i] {
						cv[i>>6] |= 1 << (i & 63)
					}
					if sv.DV[i] {
						dv[i>>6] |= 1 << (i & 63)
					}
				}
				continue
			}
			if len(c.Children) == 0 {
				// Leaf: CV = DV = 0, and its outgoing DV is exactly its V.
				idx := newPos()
				steps += int64(n)
				cv, dv := frameAcc(top)
				if words == 1 {
					sc.v[0] = leaves.plan(kern, kern.LeafBase(c.Label, c.Text))
					sc.masks[idx] = maskOf(sc.v)
					cv[0] |= sc.v[0]
					dv[0] |= sc.v[0]
					continue
				}
				clear(sc.v)
				kern.EvalLeaf(sc.v, c.Label, c.Text)
				sc.masks[idx] = maskOf(sc.v)
				for w, x := range sc.v {
					cv[w] |= x
					dv[w] |= x
				}
				continue
			}
			stack = append(stack, upFrame{node: c, idx: newPos()})
			resetAcc(len(stack) - 1)
			descended = true
			break
		}
		if descended {
			continue
		}
		steps += int64(n)
		cv, dv := frameAcc(top)
		if words == 1 {
			sc.v[0] = kern.EvalConstWord(cv[0], dv[0], f.node.Label, f.node.Text)
			dv[0] |= sc.v[0]
		} else {
			clear(sc.v)
			kern.EvalConst(sc.v, cv, dv, f.node.Label, f.node.Text) // dv |= v
		}
		sc.masks[f.idx] = maskOf(sc.v)
		sc.size[f.idx] = int32(len(sc.masks)) - f.idx
		stack = stack[:top]
		if top == 0 {
			break
		}
		pcv, pdv := frameAcc(top - 1)
		for w := range pcv {
			pcv[w] |= sc.v[w] // line 4 of bottomUp
			pdv[w] |= dv[w]   // line 5
		}
	}
	return steps, nil
}

// propagate is the top-down tag sweep over the guard masks guardMasks
// left in sc. Slot d holds the tags arriving at the nodes of depth d —
// len(chain) States tags, then len(chain) Sticky tags: the root's are the
// domain's bits one by one, a child's are what its parent computed.
func (sc *selScratch) propagate(root *xmltree.Node, sp *xpath.SelectProgram, domain Arrival, paths bool) Transfer {
	L := len(sp.Chain)
	last := L - 1
	slot := func(d int) []Arrival {
		if need := 2 * L * (d + 1); need > len(sc.slots) {
			sc.slots = append(sc.slots, make([]Arrival, need-len(sc.slots))...)
		}
		return sc.slots[2*L*d : 2*L*(d+1)]
	}
	in0 := slot(0)
	for j := 0; j < L; j++ {
		in0[j] = Arrival{States: domain.States & (1 << j)}
		in0[L+j] = Arrival{Sticky: domain.Sticky & (1 << j)}
	}
	// One node's tags: a for its states, k for its sticky states, c for
	// the child moves it makes.
	sc.tags = grow(sc.tags, 3*L)
	a, k, c := sc.tags[:L], sc.tags[L:2*L], sc.tags[2*L:]

	t := Transfer{Forward: make(map[xmltree.FragmentID]ArrivalTransfer)}
	group := func(tag Arrival) *Candidates {
		for i := range t.Cands {
			if t.Cands[i].Tag == tag {
				return &t.Cands[i]
			}
		}
		t.Cands = append(t.Cands, Candidates{Tag: tag})
		return &t.Cands[len(t.Cands)-1]
	}
	sc.path = sc.path[:0]

	// visit runs the chain at one node of depth d from slot d and writes
	// its children's tags to slot d+1; it reports whether any is live.
	visit := func(idx int32, d int) bool {
		t.Steps++
		in := slot(d)
		copy(a, in[:L])
		copy(k, in[L:])
		clear(c)
		mask := sc.masks[idx]
		// A state only ever moves to the next chain position, so one
		// ascending scan sees every state the node reaches.
		for i := 0; i < L; i++ {
			if a[i].IsZero() || mask>>i&1 == 0 {
				continue // not reached, or the guard failed: the state dies here
			}
			if i == last {
				g := group(a[i])
				g.Count++
				if paths {
					g.Paths = append(g.Paths, slices.Clone(sc.path[:d]))
				}
				continue
			}
			switch sp.Chain[i+1].Kind {
			case xpath.SSelf:
				a[i+1] = a[i+1].or(a[i])
			case xpath.SDescOrSelf:
				a[i+1] = a[i+1].or(a[i])
				k[i+1] = k[i+1].or(a[i])
			case xpath.SChild:
				c[i+1] = c[i+1].or(a[i])
			}
		}
		out := slot(d + 1)
		live := false
		for j := 0; j < L; j++ {
			out[j], out[L+j] = c[j].or(k[j]), k[j] // sticky states reach every child
			live = live || !out[j].IsZero()
		}
		return live
	}

	stack := sc.down[:0]
	defer func() {
		clear(stack[:cap(stack)])
		sc.down = stack[:0]
	}()
	if visit(0, 0) {
		stack = append(stack, downFrame{node: root, idx: 1})
	}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next == len(f.node.Children) {
			stack = stack[:len(stack)-1]
			continue
		}
		ci, ch := f.next, f.node.Children[f.next]
		idx, d := f.idx, f.depth+1
		f.next++
		f.idx += sc.size[idx]
		if ch.Virtual {
			fw, ok := t.Forward[ch.Frag]
			if !ok {
				fw = ArrivalTransfer{States: make([]Arrival, L), Sticky: make([]Arrival, L)}
				t.Forward[ch.Frag] = fw
			}
			in := slot(d)
			for j := 0; j < L; j++ {
				fw.States[j] = fw.States[j].or(in[j])
				fw.Sticky[j] = fw.Sticky[j].or(in[L+j])
			}
			continue
		}
		sc.path = append(sc.path[:d-1], ci)
		if visit(idx, d) && len(ch.Children) > 0 {
			stack = append(stack, downFrame{node: ch, idx: idx + 1, depth: d})
		}
	}
	return t
}

// fragmentPath climbs parent pointers up to the fragment root, producing
// the node's child-index path.
func fragmentPath(root, node *xmltree.Node) []int {
	var rev []int
	for n := node; n != root && n.Parent != nil; n = n.Parent {
		idx := -1
		for i, c := range n.Parent.Children {
			if c == n {
				idx = i
				break
			}
		}
		rev = append(rev, idx)
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// SelectLocal is the selection oracle: it reparses sp.Source and runs the
// AST interpreter xpath.SelectRaw over a complete tree, returning the
// selected nodes as child-index paths in document order. No guard program,
// NFA chain or visit-2 code is involved, so comparing SelectFragment (or a
// distributed ModeSelect) with it checks them instead of agreeing with
// them. A tree holding virtual nodes is an error, not an answer.
func SelectLocal(root *xmltree.Node, sp *xpath.SelectProgram) ([][]int, error) {
	if root == nil || len(root.VirtualNodes()) > 0 {
		return nil, errors.New("eval: SelectLocal over a fragmented tree")
	}
	e, err := xpath.Parse(sp.Source)
	if err != nil {
		return nil, err
	}
	nodes, err := xpath.SelectRaw(e, root)
	if err != nil {
		return nil, err
	}
	paths := make([][]int, len(nodes))
	for i, n := range nodes {
		paths[i] = fragmentPath(root, n)
	}
	slices.SortFunc(paths, slices.Compare)
	return paths, nil
}
