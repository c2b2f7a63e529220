// Package boolexpr implements the Boolean formulas ("residual functions")
// that ParBoX ships between sites in place of data.
//
// A formula is built from the constants true and false, variables, and the
// connectives AND, OR and NOT. Variables are typed: a variable names one
// entry of one of the three vectors (V, CV, DV) that Procedure bottomUp of
// the paper computes for the root of a fragment. Formulas live in a
// hash-consed Arena whose constructors fold constants, so a formula that
// can be decided locally is always represented by a constant. This is what
// keeps the per-fragment partial answers compact: the size of a shipped
// formula is bounded by the number of virtual nodes of the fragment, never
// by the size of the fragment itself (Section 3.2 of the paper).
package boolexpr

import "fmt"

// VecKind identifies which of the three per-node vectors a variable refers
// to. A parent fragment only ever consumes the V and DV vectors of a
// sub-fragment (Procedure bottomUp, lines 4-5), so VecCV never occurs in a
// shipped formula; it is retained so tests can document that fact.
type VecKind uint8

const (
	// VecV is the vector of subquery values at the fragment root.
	VecV VecKind = iota
	// VecCV is the vector of child-disjunctions at the fragment root.
	VecCV
	// VecDV is the vector of descendant-or-self disjunctions.
	VecDV
)

// String returns the conventional short name of the vector kind.
func (k VecKind) String() string {
	switch k {
	case VecV:
		return "V"
	case VecCV:
		return "CV"
	case VecDV:
		return "DV"
	default:
		return fmt.Sprintf("VecKind(%d)", uint8(k))
	}
}

// Var names the value of subquery Q of the QList at the root of fragment
// Frag, in vector Vec. It is the unknown introduced for a virtual node.
type Var struct {
	Frag int32
	Vec  VecKind
	Q    int32
}

// String renders the variable as x(frag,vec,q).
func (v Var) String() string {
	return fmt.Sprintf("x(%d,%s,%d)", v.Frag, v.Vec, v.Q)
}

// Op is the top-level operator of a formula node.
type Op uint8

const (
	// OpFalse is the constant false.
	OpFalse Op = iota
	// OpTrue is the constant true.
	OpTrue
	// OpVar is a variable leaf.
	OpVar
	// OpNot is negation (one operand).
	OpNot
	// OpAnd is n-ary conjunction (two or more operands).
	OpAnd
	// OpOr is n-ary disjunction (two or more operands).
	OpOr
)

// BinOp is the operator argument of CompFm, mirroring Procedure compFm of
// the paper (Fig. 3b).
type BinOp uint8

const (
	// OR composes two partial answers disjunctively.
	OR BinOp = iota
	// AND composes two partial answers conjunctively.
	AND
	// NEG negates the first argument; the second is ignored.
	NEG
)
