package xpath

import "repro/internal/xmltree"

// EvalRaw evaluates a raw XBL expression at node v by direct, set-based
// interpretation of the AST. It is the one answer oracle of the repository:
// it shares no code with Compile, the lane kernel, BottomUp or Solve, so
// the differential tests, parbox.EvaluateLocal and eval.SelectLocal (and
// through them the benchmark's mirror check) catch a bug in any of those
// instead of agreeing with it. It is deliberately plain — it materializes
// the node sets paths reach — but folds each //label test into the walk, so
// each // in a query costs about one centralized bottomUp pass.
//
// EvalRaw must only be used on complete trees: virtual nodes have no
// evaluable content, and the function ignores them entirely (they match no
// test and have no children). Callers that may see a fragment check for
// virtual nodes first.
func EvalRaw(e Expr, v *xmltree.Node) bool {
	switch e := e.(type) {
	case *Path:
		return len(evalPath(e, v)) > 0
	case *TextCmp:
		if e.Path == nil {
			return !v.Virtual && v.Text == e.Str
		}
		for _, u := range evalPath(e.Path, v) {
			if u.Text == e.Str {
				return true
			}
		}
		return false
	case *LabelCmp:
		return !v.Virtual && v.Label == e.Label
	case *Not:
		return !EvalRaw(e.Q, v)
	case *And:
		return EvalRaw(e.Q1, v) && EvalRaw(e.Q2, v)
	case *Or:
		return EvalRaw(e.Q1, v) || EvalRaw(e.Q2, v)
	default:
		panic("xpath: unknown expression type in EvalRaw")
	}
}

// evalPath mirrors the normalization rules of Compile, so both definitions
// of the semantics coincide by construction of the tests, not by sharing
// code:
//
//   - a step moves to children, except that a label step directly after //
//     filters the descendant-or-self set in place (Example 2.1), and a
//     leading "/" makes the first step test the context node itself;
//   - qualifiers filter the current set;
//   - // expands to descendant-or-self.
//
// Node sets are plain slices. A node has one parent, so the children of
// distinct nodes are distinct, and so is any filtered subset; only
// descendant-or-self walks from several nodes can overlap, and only they
// dedupe.
func evalPath(p *Path, v *xmltree.Node) []*xmltree.Node {
	if v.Virtual {
		return nil
	}
	cur := []*xmltree.Node{v}
	steps := p.Steps
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		switch s.Kind {
		case StepSelf:
			cur = filter(cur, func(u *xmltree.Node) bool { return holdAll(s.Quals, u) })
		case StepWildcard:
			if i == 0 && p.Rooted {
				cur = filter(cur, func(u *xmltree.Node) bool { return holdAll(s.Quals, u) })
			} else {
				cur = childrenOf(cur, func(u *xmltree.Node) bool { return holdAll(s.Quals, u) })
			}
		case StepLabel:
			pred := func(u *xmltree.Node) bool { return u.Label == s.Label && holdAll(s.Quals, u) }
			if i == 0 && p.Rooted {
				cur = filter(cur, pred)
			} else {
				cur = childrenOf(cur, pred)
			}
		case StepDescOrSelf:
			pred := func(u *xmltree.Node) bool { return holdAll(s.Quals, u) }
			if i+1 < len(steps) && steps[i+1].Kind == StepLabel {
				// Test the merged label inside the walk, so //l never
				// materializes the whole descendant-or-self set.
				nxt := steps[i+1]
				pred = func(u *xmltree.Node) bool {
					return u.Label == nxt.Label && holdAll(s.Quals, u) && holdAll(nxt.Quals, u)
				}
				i++
			}
			cur = descOrSelf(cur, pred)
		}
	}
	return cur
}

func holdAll(quals []Expr, u *xmltree.Node) bool {
	for _, q := range quals {
		if !EvalRaw(q, u) {
			return false
		}
	}
	return true
}

// filter keeps the nodes of s that satisfy pred, in place.
func filter(s []*xmltree.Node, pred func(*xmltree.Node) bool) []*xmltree.Node {
	out := s[:0]
	for _, n := range s {
		if pred(n) {
			out = append(out, n)
		}
	}
	return out
}

func childrenOf(s []*xmltree.Node, pred func(*xmltree.Node) bool) []*xmltree.Node {
	var out []*xmltree.Node
	for _, n := range s {
		for _, c := range n.Children {
			if !c.Virtual && pred(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

func descOrSelf(s []*xmltree.Node, pred func(*xmltree.Node) bool) []*xmltree.Node {
	var out, stack []*xmltree.Node
	var seen map[*xmltree.Node]bool
	if len(s) > 1 {
		seen = make(map[*xmltree.Node]bool)
	}
	for _, n := range s {
		stack = append(stack[:0], n)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if u.Virtual {
				continue
			}
			if pred(u) && !seen[u] {
				if seen != nil {
					seen[u] = true
				}
				out = append(out, u)
			}
			// Push children in reverse so they pop in document order.
			for i := len(u.Children) - 1; i >= 0; i-- {
				stack = append(stack, u.Children[i])
			}
		}
	}
	return out
}
