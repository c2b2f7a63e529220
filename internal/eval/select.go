package eval

import (
	"errors"
	"fmt"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Selection evaluation (the Section 8 extension). Per fragment, the second
// pass of SelectParBoX runs in two phases:
//
//  1. a bottom-up sweep evaluating every guard subquery at every node —
//     virtual nodes contribute the (now known, constant) V/DV values of
//     their sub-fragments, so guards are plain booleans;
//  2. a top-down sweep propagating the chain's NFA states: a node reached
//     in the final state is selected, and states arriving at a virtual
//     node are recorded for forwarding to the sub-fragment's site.

// BoolVecs carries the resolved (constant) V and DV vectors of a
// sub-fragment, produced by solving the pass-1 equation system.
type BoolVecs struct {
	V, DV []bool
}

// Arrival is the NFA state set crossing a fragment boundary.
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

// SelectResult is one fragment's pass-2 outcome.
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

// SelectFragment runs both pass-2 phases over one fragment. subVals must
// contain the resolved vectors for every sub-fragment referenced by the
// fragment's virtual nodes.
func SelectFragment(root *xmltree.Node, sp *xpath.SelectProgram,
	subVals map[xmltree.FragmentID]BoolVecs, in Arrival) (SelectResult, error) {
	if root == nil || root.Virtual {
		return SelectResult{}, errors.New("eval: bad fragment root")
	}
	masks, steps, err := guardMasks(root, sp, subVals)
	if err != nil {
		return SelectResult{}, err
	}
	res := SelectResult{Forward: make(map[xmltree.FragmentID]Arrival)}
	res.Steps = steps

	type frame struct {
		node *xmltree.Node
		in   Arrival
	}
	stack := []frame{{node: root, in: in}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Steps++
		arr, sticky := f.in.States, f.in.Sticky
		var childStates uint64
		mask := masks[f.node]
		last := len(sp.Chain) - 1
		for i := 0; i <= last; i++ {
			bit := uint64(1) << i
			if arr&bit == 0 {
				continue
			}
			if mask&bit == 0 {
				continue // guard failed: the state dies here
			}
			if i == last {
				// Selected: materialize the path only now, by climbing to
				// the fragment root — selections are typically sparse, and
				// carrying paths through the traversal would cost
				// O(depth²) on pathological chains.
				res.Selected = append(res.Selected, fragmentPath(root, f.node))
				continue
			}
			next := uint64(1) << (i + 1)
			switch sp.Chain[i+1].Kind {
			case xpath.SSelf:
				arr |= next
			case xpath.SDescOrSelf:
				arr |= next
				sticky |= next
			case xpath.SChild:
				childStates |= next
			}
		}
		childArr := Arrival{States: childStates | sticky, Sticky: sticky}
		if childArr.States == 0 {
			continue
		}
		// Children in reverse so selection order stays document order.
		for ci := len(f.node.Children) - 1; ci >= 0; ci-- {
			c := f.node.Children[ci]
			if c.Virtual {
				prev := res.Forward[c.Frag]
				prev.States |= childArr.States
				prev.Sticky |= childArr.Sticky
				res.Forward[c.Frag] = prev
				continue
			}
			stack = append(stack, frame{node: c, in: childArr})
		}
	}
	return res, nil
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

// guardMasks evaluates the Bool program bottom-up at every node, returning
// per node a bitmask over chain positions: bit i set iff chain step i's
// guard holds at the node (untested steps are always set).
func guardMasks(root *xmltree.Node, sp *xpath.SelectProgram,
	subVals map[xmltree.FragmentID]BoolVecs) (map[*xmltree.Node]uint64, int64, error) {
	n := len(sp.Bool.Subs)
	masks := make(map[*xmltree.Node]uint64)
	var steps int64

	type frame struct {
		node   *xmltree.Node
		next   int
		cv, dv []bool
	}
	stack := []*frame{{node: root, cv: make([]bool, n), dv: make([]bool, n)}}
	var badFrag xmltree.FragmentID = -1
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		descended := false
		for f.next < len(f.node.Children) {
			c := f.node.Children[f.next]
			f.next++
			if c.Virtual {
				steps += int64(n)
				sv, ok := subVals[c.Frag]
				if !ok || len(sv.V) != n || len(sv.DV) != n {
					badFrag = c.Frag
					break
				}
				for i := 0; i < n; i++ {
					f.cv[i] = f.cv[i] || sv.V[i]
					f.dv[i] = f.dv[i] || sv.DV[i]
				}
				continue
			}
			stack = append(stack, &frame{node: c, cv: make([]bool, n), dv: make([]bool, n)})
			descended = true
			break
		}
		if badFrag >= 0 {
			return nil, steps, fmt.Errorf("eval: missing resolved vectors for sub-fragment %d", badFrag)
		}
		if descended {
			continue
		}
		steps += int64(n)
		v := evalCasesBool(f.node, sp.Bool, f.cv, f.dv)
		var mask uint64
		for i, step := range sp.Chain {
			if step.Test < 0 || v[step.Test] {
				mask |= uint64(1) << i
			}
		}
		masks[f.node] = mask
		stack = stack[:len(stack)-1]
		if len(stack) == 0 {
			break
		}
		p := stack[len(stack)-1]
		for i := 0; i < n; i++ {
			p.cv[i] = p.cv[i] || v[i]
			p.dv[i] = p.dv[i] || f.dv[i]
		}
	}
	return masks, steps, nil
}

// evalCasesBool is evalCases over plain booleans (all inputs constant).
func evalCasesBool(node *xmltree.Node, prog *xpath.Program, cv, dv []bool) []bool {
	v := make([]bool, len(prog.Subs))
	for i, sq := range prog.Subs {
		var b bool
		switch sq.Kind {
		case xpath.KTrue:
			b = true
		case xpath.KLabel:
			b = node.Label == sq.Str
		case xpath.KText:
			b = node.Text == sq.Str
		case xpath.KChild:
			b = cv[sq.A]
		case xpath.KFilter:
			b = v[sq.A]
			if sq.B >= 0 {
				b = b && v[sq.B]
			}
		case xpath.KDesc:
			b = dv[sq.A]
		case xpath.KOr:
			b = v[sq.A] || v[sq.B]
		case xpath.KAnd:
			b = v[sq.A] && v[sq.B]
		case xpath.KNot:
			b = !v[sq.A]
		default:
			panic(fmt.Sprintf("eval: unknown subquery kind %v", sq.Kind))
		}
		v[i] = b
		dv[i] = b || dv[i]
	}
	return v
}

// SelectLocal evaluates a selection query over a complete tree (no virtual
// nodes), returning selected nodes as paths — the centralized baseline and
// test oracle adapter.
func SelectLocal(root *xmltree.Node, sp *xpath.SelectProgram) ([][]int, error) {
	res, err := SelectFragment(root, sp, nil, StartArrival())
	if err != nil {
		return nil, err
	}
	if len(res.Forward) != 0 {
		return nil, errors.New("eval: SelectLocal over a fragmented tree")
	}
	return res.Selected, nil
}
