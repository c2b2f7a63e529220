// Package xpath implements XBL, the class of Boolean XPath queries of the
// paper (Section 2.2):
//
//	q := p | p/text() = str | label() = A | ¬q | q ∧ q | q ∨ q
//	p := ε | A | * | p//p | p/p | p[q]
//
// The package provides a lexer and parser for a textual surface syntax, the
// linear-time normalize(q) rewriting to the paper's normal form, and the
// QList(q) compiler that produces a flat, topologically sorted Program of
// subqueries — the exact input of Procedure bottomUp. A slow reference
// interpreter over the raw AST (EvalRaw) backs the differential property
// tests.
//
// Surface syntax accepted by Parse:
//
//	[//broker[//stock/code = "goog" && !(//stock/code = "yhoo")]]
//
//	– the outer [...] is optional;
//	– conjunction: "&&" or "and";  disjunction: "||" or "or";
//	  negation: "!" or "not" (prefix);
//	– p = "str" abbreviates p/text() = "str"; strings quote with " or ';
//	– steps: name, "*", "." (ε); separators "/" and "//";
//	  a leading "/" anchors the first step at the context node itself;
//	  qualifiers "[q]" may follow any step;
//	– label() = name and text() = "str" are the primitive tests.
package xpath

import (
	"fmt"
	"strings"
)

// Expr is a raw (pre-normalization) XBL Boolean expression.
type Expr interface {
	exprNode()
	// String renders the expression in the surface syntax.
	String() string
}

// Path is the raw path expression p: a sequence of steps evaluated from the
// context node. Its Boolean value is "some node is reachable via the steps".
type Path struct {
	// Rooted records a leading "/": the first step is matched against the
	// context node itself rather than its children.
	Rooted bool
	Steps  []Step
}

// StepKind distinguishes the four step shapes of the grammar.
type StepKind uint8

const (
	// StepSelf is ε, written ".".
	StepSelf StepKind = iota
	// StepLabel moves to children with a given label.
	StepLabel
	// StepWildcard moves to all children, written "*".
	StepWildcard
	// StepDescOrSelf is the "//" connector: descendant-or-self.
	StepDescOrSelf
)

// Step is one component of a path: an axis/test plus optional qualifiers.
type Step struct {
	Kind  StepKind
	Label string // for StepLabel
	Quals []Expr // qualifiers [q] attached to this step
}

// TextCmp is the predicate p/text() = Str. An empty path compares the
// context node's own text.
type TextCmp struct {
	Path *Path // may be nil: text() = "str" at the context node
	Str  string
}

// LabelCmp is the predicate label() = Label at the context node.
type LabelCmp struct {
	Label string
}

// Not is ¬Q.
type Not struct{ Q Expr }

// And is Q1 ∧ Q2.
type And struct{ Q1, Q2 Expr }

// Or is Q1 ∨ Q2.
type Or struct{ Q1, Q2 Expr }

func (*Path) exprNode()     {}
func (*TextCmp) exprNode()  {}
func (*LabelCmp) exprNode() {}
func (*Not) exprNode()      {}
func (*And) exprNode()      {}
func (*Or) exprNode()       {}

func (p *Path) String() string {
	var b strings.Builder
	if p.Rooted {
		b.WriteByte('/')
	}
	for i, s := range p.Steps {
		if i > 0 && s.Kind != StepDescOrSelf && p.Steps[i-1].Kind != StepDescOrSelf {
			b.WriteByte('/')
		}
		switch s.Kind {
		case StepSelf:
			b.WriteByte('.')
		case StepLabel:
			b.WriteString(s.Label)
		case StepWildcard:
			b.WriteByte('*')
		case StepDescOrSelf:
			b.WriteString("//")
		}
		for _, q := range s.Quals {
			fmt.Fprintf(&b, "[%s]", q.String())
		}
	}
	if len(p.Steps) == 0 && !p.Rooted {
		b.WriteByte('.')
	}
	return b.String()
}

func (t *TextCmp) String() string {
	if t.Path == nil {
		return "text() = " + quote(t.Str)
	}
	ps := t.Path.String()
	sep := "/"
	if strings.HasSuffix(ps, "/") {
		sep = "" // after a trailing "//" (or the bare "/"), no extra slash
	}
	return ps + sep + "text() = " + quote(t.Str)
}

func (l *LabelCmp) String() string {
	if isName(l.Label) {
		return "label() = " + l.Label
	}
	return "label() = " + quote(l.Label)
}

// quote delimits a literal with whichever quote character it does not
// contain: the lexer has no escapes, so this is the only spelling that
// reparses to the same string. (A literal holding both cannot be written
// at all, and so never comes out of Parse.)
func quote(s string) string {
	if strings.ContainsRune(s, '"') {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// isName reports whether s lexes as one name token, so a label() operand
// can be printed bare.
func isName(s string) bool {
	for i, r := range s {
		if i == 0 && !isNameStart(r) || !isNamePart(r) {
			return false
		}
	}
	return s != "" && s != "and" && s != "or" && s != "not"
}

func (n *Not) String() string { return fmt.Sprintf("!(%s)", n.Q.String()) }

func (a *And) String() string { return fmt.Sprintf("(%s && %s)", a.Q1.String(), a.Q2.String()) }

func (o *Or) String() string { return fmt.Sprintf("(%s || %s)", o.Q1.String(), o.Q2.String()) }
