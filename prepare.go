package parbox

import (
	"sync"

	"repro/internal/xpath"
)

// Prepared is a query prepared once and executed many times: the paper's
// "compile once, ship whole" discipline surfaced as a prepared-statement
// artifact. Prepare parses the source a single time; every compiled form
// the execution modes need — the Boolean QList program, the peephole-
// optimized program, the selection automaton — is computed on first use
// and cached, so repeated System.Exec calls on the same Prepared never
// recompile anything. A Prepared is immutable after creation and safe for
// concurrent use by any number of Exec calls across any number of
// Systems.
type Prepared struct {
	src  string
	expr xpath.Expr

	// precompiled marks artifacts whose program is not Compile(expr) —
	// today only Optimized() forms. The coalescing scheduler fuses from
	// expr, which would silently discard such a program, so Exec runs
	// precompiled queries in their own round instead of coalescing them.
	precompiled bool

	progOnce sync.Once
	prog     *xpath.Program

	optOnce sync.Once
	opt     *Prepared

	selOnce sync.Once
	sel     *xpath.SelectProgram
	selErr  error
}

// Prepare parses an XBL query, e.g.
//
//	//stock[code = "GOOG" && sell = "376"]
//
// Conjunction is "&&"/"and", disjunction "||"/"or", negation "!"/"not";
// p = "str" abbreviates p/text() = "str"; label() = name tests the
// context node's label. See the package documentation for the grammar.
//
// A plain path query (no top-level Boolean connectives) can additionally
// run in ModeSelect and ModeCount; each compiled form (Boolean program,
// selection automaton) is built on the first Exec that needs it and
// cached on the Prepared.
func Prepare(src string) (*Prepared, error) {
	e, err := xpath.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Prepared{src: src, expr: e}, nil
}

// MustPrepare is Prepare panicking on error, for fixed query constants.
func MustPrepare(src string) *Prepared {
	q, err := Prepare(src)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the query's surface form.
func (q *Prepared) String() string { return q.src }

// QListSize returns |QList(q)|, the paper's query-size measure.
func (q *Prepared) QListSize() int { return q.program().QListSize() }

// program returns the cached Boolean QList program, compiling it on
// first use.
func (q *Prepared) program() *xpath.Program {
	q.progOnce.Do(func() {
		if q.prog == nil {
			p := xpath.Compile(q.expr)
			p.Source = q.src
			q.prog = p
		}
	})
	return q.prog
}

// Optimized returns a semantically identical prepared query whose QList
// has been peephole-minimized (redundant ε-filters, identity
// conjunctions, double negations removed). Smaller QLists mean
// proportionally less work at every node of every fragment. The optimized
// form is computed once and cached.
func (q *Prepared) Optimized() *Prepared {
	q.optOnce.Do(func() {
		// prog is pre-filled; program()'s nil check keeps it.
		q.opt = &Prepared{src: q.src, expr: q.expr, prog: q.program().Optimize(), precompiled: true}
	})
	return q.opt
}

// selectProgram returns the cached selection automaton, compiling it on
// first use. Queries that are not plain paths report
// xpath.ErrNotSelection.
func (q *Prepared) selectProgram() (*xpath.SelectProgram, error) {
	q.selOnce.Do(func() {
		if q.sel, q.selErr = xpath.CompileSelect(q.expr); q.selErr == nil {
			q.sel.Source = q.src
		}
	})
	return q.sel, q.selErr
}
