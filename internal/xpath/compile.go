package xpath

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/wire"
)

// Kind enumerates the nine normal-form subquery shapes of Procedure
// bottomUp (cases c0–c8 in Fig. 3b of the paper).
type Kind uint8

const (
	// KTrue is ε: always true (case c0).
	KTrue Kind = iota
	// KLabel is label() = Str (case c1).
	KLabel
	// KText is text() = Str (case c2).
	KText
	// KChild is */q: some child satisfies subquery A (case c3).
	KChild
	// KFilter is ε[q_A]/q_B: the conjunction of A and the continuation B at
	// the same node (case c4). B may be -1: ε[q_A] with no continuation.
	KFilter
	// KDesc is //q: some descendant-or-self node satisfies A (case c5).
	KDesc
	// KOr is q_A ∨ q_B (case c6).
	KOr
	// KAnd is q_A ∧ q_B (case c7).
	KAnd
	// KNot is ¬q_A (case c8).
	KNot
)

func (k Kind) String() string {
	switch k {
	case KTrue:
		return "eps"
	case KLabel:
		return "label"
	case KText:
		return "text"
	case KChild:
		return "child"
	case KFilter:
		return "filter"
	case KDesc:
		return "desc"
	case KOr:
		return "or"
	case KAnd:
		return "and"
	case KNot:
		return "not"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Subquery is one entry of the QList: a normal-form subquery whose operands
// A and B are indices of earlier entries (or -1 when absent).
type Subquery struct {
	Kind Kind
	A, B int32
	Str  string
}

// Program is the compiled QList(q): subqueries in topological order
// (operands strictly before users). The answer to the whole query at a node
// is the value of the last entry, exactly as in the paper ("the answer to q
// is the value of the last query in QList(q)").
type Program struct {
	Subs []Subquery
	// Source is the surface text the program was compiled from, when known.
	Source string

	// fp caches Fingerprint (0 = not yet computed). Do not mutate Subs
	// after the first Fingerprint call.
	fp atomic.Uint64

	// kern caches the compiled lane kernel (see Kernel). Do not mutate
	// Subs after the first Kernel call.
	kern atomic.Pointer[LaneKernel]
}

// Fingerprint returns a stable 64-bit fingerprint of the program: FNV-1a
// over the QList structure (kinds, operand wiring, payload strings; Source
// is excluded — two spellings compiling to the same QList share a
// fingerprint). Sites key their per-fragment triplet caches by it, so it
// must be identical across processes for the same program — it hashes the
// canonical content, not any in-memory representation. The value is never
// 0; it is computed once and cached.
func (p *Program) Fingerprint() uint64 {
	if fp := p.fp.Load(); fp != 0 {
		return fp
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(len(p.Subs)))
	for _, s := range p.Subs {
		mix(uint64(s.Kind))
		mix(uint64(uint32(s.A)))
		mix(uint64(uint32(s.B)))
		mix(uint64(len(s.Str)))
		for i := 0; i < len(s.Str); i++ {
			h ^= uint64(s.Str[i])
			h *= 1099511628211
		}
	}
	if h == 0 {
		h = 1
	}
	p.fp.Store(h)
	return h
}

// Root returns the index of the outermost subquery.
func (p *Program) Root() int { return len(p.Subs) - 1 }

// QListSize returns |QList(q)|, the query-size measure of the experiments.
func (p *Program) QListSize() int { return len(p.Subs) }

// String renders the program one subquery per line, for tests and debugging.
func (p *Program) String() string {
	var b strings.Builder
	for i, s := range p.Subs {
		fmt.Fprintf(&b, "q%d: %s", i+1, s.Kind)
		if s.Str != "" || s.Kind == KLabel || s.Kind == KText {
			fmt.Fprintf(&b, " %q", s.Str)
		}
		if s.A >= 0 {
			fmt.Fprintf(&b, " q%d", s.A+1)
		}
		if s.B >= 0 {
			fmt.Fprintf(&b, " q%d", s.B+1)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CompileOptions tune Compile; the zero value is the default behaviour.
type CompileOptions struct {
	// DisableHashCons turns off subquery sharing, reproducing the paper's
	// literal QList construction in which structurally identical
	// subqueries occupy separate entries. The ablation benchmark measures
	// what sharing saves; semantics are unaffected.
	DisableHashCons bool
}

// Compile normalizes a raw XBL expression (Section 2.2's normalize) and
// returns its QList program. The top-level query [q] compiles to the
// wrapper ε[normalize(q)], matching the paper's Example 2.1. Structurally
// identical subqueries share one entry (hash-consing); the paper's O(|q|)
// size bound is preserved.
func Compile(e Expr) *Program { return CompileWithOptions(e, CompileOptions{}) }

// CompileWithOptions is Compile with explicit options.
func CompileWithOptions(e Expr, opts CompileOptions) *Program {
	b := &compiler{}
	if !opts.DisableHashCons {
		b.intern = make(map[Subquery]int32)
	}
	idx := b.expr(e)
	// The wrapper is appended directly (not interned) so that the program
	// root is always the last entry, as the paper's evalST assumes.
	b.subs = append(b.subs, Subquery{Kind: KFilter, A: idx, B: -1})
	return &Program{Subs: b.subs, Source: e.String()}
}

// CompileBatch compiles several queries into ONE shared program: the
// QLists are merged with hash-consing across queries, so common
// subexpressions (a dissemination system's subscriptions overlap heavily)
// are evaluated once per node for the whole batch. The returned roots
// give each query's answer entry in the shared program; the program's own
// last entry is the wrapper of the final query.
//
// One bottomUp pass over a fragment answers every query in the batch —
// one visit per site for N subscriptions.
func CompileBatch(exprs []Expr) (*Program, []int32) {
	b := NewBatchBuilder()
	for _, e := range exprs {
		b.Add(e)
	}
	return b.Program()
}

// PrecompileKernel eagerly compiles and caches the fused lane kernel, so
// evaluation threads never race to build it inside the first fragment's
// traversal. Kernel() lazily does the same; this just front-loads the work.
func (p *Program) PrecompileKernel() *Program {
	p.Kernel()
	return p
}

// BatchBuilder builds a shared batch program incrementally — CompileBatch
// one query at a time. The coalescing scheduler uses it to know the fused
// QList size (the lane count) after every admission, so a window can flush
// the moment its lane budget is reached instead of estimating from the sum
// of the individual programs (which ignores cross-query sharing and
// over-counts heavily for overlapping subscription sets).
type BatchBuilder struct {
	c     compiler
	roots []int32
}

// NewBatchBuilder returns an empty builder.
func NewBatchBuilder() *BatchBuilder {
	return &BatchBuilder{c: compiler{intern: make(map[Subquery]int32)}}
}

// Add compiles e into the shared program and returns the index of its
// answer entry. Each query keeps its own ε[q] wrapper (interned:
// identical queries share even the wrapper).
func (b *BatchBuilder) Add(e Expr) int32 {
	idx := b.c.expr(e)
	root := b.c.add(Subquery{Kind: KFilter, A: idx, B: -1})
	b.roots = append(b.roots, root)
	return root
}

// Queries returns how many queries have been added.
func (b *BatchBuilder) Queries() int { return len(b.roots) }

// Lanes returns the current fused QList size — what every node of every
// fragment will pay per bottomUp visit for the whole batch.
func (b *BatchBuilder) Lanes() int { return len(b.c.subs) }

// Program finalizes and returns the shared program plus each query's answer
// entry, in Add order, with the fused lane kernel precompiled. The builder
// must not receive further Adds until Reset; the returned program and roots
// do not alias builder state that Reset reuses.
func (b *BatchBuilder) Program() (*Program, []int32) {
	if len(b.c.subs) == 0 {
		b.c.add(Subquery{Kind: KTrue, A: -1, B: -1})
	}
	p := &Program{Subs: b.c.subs}
	p.PrecompileKernel()
	return p, b.roots
}

// Reset returns the builder to its freshly constructed state while keeping
// the intern map's bucket storage, so a steady-state scheduler can compile
// every window's batch through one builder without re-growing the
// hash-consing table each round. The previously returned Program and roots
// remain valid: Reset abandons those slices rather than truncating them.
func (b *BatchBuilder) Reset() {
	clear(b.c.intern)
	b.c.subs = nil
	b.roots = nil
}

// MustCompileString parses and compiles, panicking on parse errors; it is
// the convenient form for fixed workloads and tests.
func MustCompileString(src string) *Program {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	p := Compile(e)
	p.Source = src
	return p
}

// CompileString parses and compiles src.
func CompileString(src string) (*Program, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	p := Compile(e)
	p.Source = src
	return p, nil
}

type compiler struct {
	subs   []Subquery
	intern map[Subquery]int32
}

func (c *compiler) add(s Subquery) int32 {
	if c.intern != nil {
		if i, ok := c.intern[s]; ok {
			return i
		}
	}
	i := int32(len(c.subs))
	c.subs = append(c.subs, s)
	if c.intern != nil {
		c.intern[s] = i
	}
	return i
}

func (c *compiler) expr(e Expr) int32 {
	switch e := e.(type) {
	case *Path:
		return c.path(e, -1)
	case *TextCmp:
		text := c.add(Subquery{Kind: KText, A: -1, B: -1, Str: e.Str})
		if e.Path == nil {
			return text
		}
		return c.path(e.Path, text)
	case *LabelCmp:
		return c.add(Subquery{Kind: KLabel, A: -1, B: -1, Str: e.Label})
	case *Not:
		return c.add(Subquery{Kind: KNot, A: c.expr(e.Q), B: -1})
	case *And:
		a := c.expr(e.Q1)
		b := c.expr(e.Q2)
		return c.add(Subquery{Kind: KAnd, A: a, B: b})
	case *Or:
		a := c.expr(e.Q1)
		b := c.expr(e.Q2)
		return c.add(Subquery{Kind: KOr, A: a, B: b})
	default:
		panic(fmt.Sprintf("xpath: unknown expression type %T", e))
	}
}

// path compiles a path whose final node must additionally satisfy the
// subquery tail (or nothing, when tail = -1), processing steps right to
// left. The normal-form construction follows Section 2.2:
//
//   - A          →  */ε[label()=A]
//   - step after //  merges its label test into the descendant-or-self
//     filter, as in Example 2.1 (//stock → //ε[label()=stock ∧ ...]);
//   - consecutive ε-filters merge into one conjunction (the last
//     normalize rule);
//   - a leading "/" matches the first step at the context node itself.
func (c *compiler) path(p *Path, tail int32) int32 {
	steps := p.Steps
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		switch s.Kind {
		case StepSelf:
			tail = c.filter(c.quals(s.Quals, -1), tail)
		case StepWildcard:
			inner := c.filter(c.quals(s.Quals, -1), tail)
			if i == 0 && p.Rooted {
				tail = inner // "/*[q]": test the context node itself
			} else {
				tail = c.step(KChild, inner)
			}
		case StepLabel:
			label := c.add(Subquery{Kind: KLabel, A: -1, B: -1, Str: s.Label})
			inner := c.filter(c.quals(s.Quals, label), tail)
			switch {
			case i > 0 && steps[i-1].Kind == StepDescOrSelf:
				// Merge with the preceding //: descendant-or-self whose
				// label matches. The // step's own qualifiers conjoin too.
				inner = c.filter(c.quals(steps[i-1].Quals, -1), inner)
				tail = c.step(KDesc, inner)
				i--
			case i == 0 && p.Rooted:
				tail = inner // "/A": test the context node's own label
			default:
				tail = c.step(KChild, inner)
			}
		case StepDescOrSelf:
			inner := c.filter(c.quals(s.Quals, -1), tail)
			tail = c.step(KDesc, inner)
		}
	}
	if tail < 0 {
		// The bare paths "." and "/" reduce to ε.
		tail = c.add(Subquery{Kind: KTrue, A: -1, B: -1})
	}
	return tail
}

// quals compiles a qualifier list (plus an optional leading label test) into
// a single conjunction index, or -1 when there is nothing to test.
func (c *compiler) quals(quals []Expr, label int32) int32 {
	conj := label
	for _, q := range quals {
		idx := c.expr(q)
		if conj < 0 {
			conj = idx
		} else {
			conj = c.add(Subquery{Kind: KAnd, A: conj, B: idx})
		}
	}
	return conj
}

// filter builds ε[q]/tail with the ε-merge rule. q = -1 means no test
// (returns tail); tail = -1 means no continuation.
func (c *compiler) filter(q, tail int32) int32 {
	if q < 0 {
		return tail
	}
	if tail < 0 {
		return c.add(Subquery{Kind: KFilter, A: q, B: -1})
	}
	t := c.subs[tail]
	switch t.Kind {
	case KFilter:
		// ε[q]/ε[q']/cont  →  ε[q ∧ q']/cont
		conj := c.add(Subquery{Kind: KAnd, A: q, B: t.A})
		return c.add(Subquery{Kind: KFilter, A: conj, B: t.B})
	case KText, KLabel, KTrue:
		// ε[q]/(self test)  →  ε[q ∧ test]
		conj := c.add(Subquery{Kind: KAnd, A: q, B: tail})
		return c.add(Subquery{Kind: KFilter, A: conj, B: -1})
	default:
		return c.add(Subquery{Kind: KFilter, A: q, B: tail})
	}
}

// step builds */q or //q. A missing continuation becomes ε, since the
// movement cases of Procedure bottomUp need an operand.
func (c *compiler) step(kind Kind, arg int32) int32 {
	if arg < 0 {
		arg = c.add(Subquery{Kind: KTrue, A: -1, B: -1})
	}
	return c.add(Subquery{Kind: kind, A: arg, B: -1})
}

// Validate checks that the program is well formed: operand indices in
// range and strictly smaller than their user (topological order), payloads
// present exactly for the leaf kinds. Sites run it on programs received
// from the network before evaluating them.
func (p *Program) Validate() error {
	if len(p.Subs) == 0 {
		return errors.New("xpath: empty program")
	}
	for i, s := range p.Subs {
		checkOperand := func(op int32, required bool) error {
			if op < 0 {
				if required {
					return fmt.Errorf("xpath: q%d (%s) missing operand", i+1, s.Kind)
				}
				return nil
			}
			if int(op) >= i {
				return fmt.Errorf("xpath: q%d (%s) refers forward to q%d", i+1, s.Kind, op+1)
			}
			return nil
		}
		switch s.Kind {
		case KTrue:
			// no operands
		case KLabel, KText:
			// payload only; empty strings are legal labels/texts
		case KChild, KDesc, KNot:
			if err := checkOperand(s.A, true); err != nil {
				return err
			}
		case KFilter:
			if err := checkOperand(s.A, true); err != nil {
				return err
			}
			if err := checkOperand(s.B, false); err != nil {
				return err
			}
		case KAnd, KOr:
			if err := checkOperand(s.A, true); err != nil {
				return err
			}
			if err := checkOperand(s.B, true); err != nil {
				return err
			}
		default:
			return fmt.Errorf("xpath: q%d has unknown kind %d", i+1, uint8(s.Kind))
		}
	}
	return nil
}

// ErrBadProgram is wrapped by program decoding failures.
var ErrBadProgram = errors.New("xpath: malformed program encoding")

// Encode serializes the program for shipping to sites: uvarint count, then
// per subquery a kind byte, uvarint(A+1), uvarint(B+1) and a
// length-prefixed payload string. |Encode(p)| is the O(|q|) quantity the
// paper charges for broadcasting the query.
func (p *Program) Encode() []byte {
	dst := binary.AppendUvarint(nil, uint64(len(p.Subs)))
	for _, s := range p.Subs {
		dst = append(dst, byte(s.Kind))
		dst = binary.AppendUvarint(dst, uint64(s.A+1))
		dst = binary.AppendUvarint(dst, uint64(s.B+1))
		dst = wire.AppendString(dst, s.Str)
	}
	return dst
}

// DecodeProgram parses an encoded program and validates it.
func DecodeProgram(buf []byte) (*Program, error) {
	r := wire.NewReader(buf, ErrBadProgram)
	p := &Program{Subs: make([]Subquery, r.Count(4))}
	for i := range p.Subs {
		s := &p.Subs[i]
		s.Kind = Kind(r.Byte())
		s.A, s.B = int32(r.Uvarint())-1, int32(r.Uvarint())-1
		s.Str = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	return p, nil
}
