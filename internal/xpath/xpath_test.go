package xpath

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex(`//broker[name = "Merill Lynch"] && !(label() = x) or y`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokenKind{
		tokDblSlash, tokName, tokLBracket, tokName, tokEq, tokString, tokRBracket,
		tokAnd, tokNot, tokLParen, tokName, tokLParen, tokRParen, tokEq, tokName,
		tokRParen, tokOr, tokName, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexUnicodeOperators(t *testing.T) {
	toks, err := lex(`a ∧ ¬b ∨ c`)
	if err != nil {
		t.Fatal(err)
	}
	want := []tokenKind{tokName, tokAnd, tokNot, tokName, tokOr, tokName, tokEOF}
	for i, k := range want {
		if toks[i].kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `a & b`, `a | b`, `$x`} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded, want error", src)
		}
	}
}

// parseAccepted are queries the parser must accept; FuzzParse seeds from
// them too.
var parseAccepted = []string{
	`//a && //b`,
	`[//a && //b]`,
	`//stock[code/text() = "yhoo"]`,
	`//broker[//stock/code = "goog" && !(//stock/code = "yhoo")]`,
	`/portofolio/broker/name = "Merill Lynch"`,
	`label() = broker`,
	`text() = "42"`,
	`.`,
	`*`,
	`/`,
	`a//`,
	`a//[label() = b]`,
	`.//b[. = "x"]`,
	`not (a or b) and c`,
	`a[b][c]`,
	`*[text() = "v"]/e`,
	`//a//b//c`,
}

func TestParseAccepts(t *testing.T) {
	for _, src := range parseAccepted {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		``,
		`[`,
		`[a`,
		`a]`,
		`a &&`,
		`a/`,
		`a = b`, // comparison value must be quoted
		`label() = `,
		`text() = 5x`,
		`()`,
		`a[[b]]`,
		`a b`,
		`!`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else if !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) error %v is not ErrSyntax", src, err)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		`//a && //b`,
		`//stock[code/text() = "yhoo"]`,
		`/a/b`,
		`a//b[c]`,
		`!(a) || (b && c)`,
		`.//b`,
		`a//`,
	}
	for _, src := range cases {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("reparse of %q → %q: %v", src, e1.String(), err)
		}
		if e1.String() != e2.String() {
			t.Errorf("round trip of %q: %q != %q", src, e1.String(), e2.String())
		}
	}
}

// TestStringQuotesLiterals: the lexer has no escapes, so String must quote
// each literal with the quote character it does not contain. An escaped
// `\"` does not reparse at all, and an escaped `\\` reparses to a
// different literal and flips the answer.
func TestStringQuotesLiterals(t *testing.T) {
	root := xmltree.NewElement("r", "",
		xmltree.NewElement("a", `x"y`),
		xmltree.NewElement("b", `C:\tmp`))
	for _, src := range []string{`//a = 'x"y'`, `//b = 'C:\tmp'`, `label() = "two words"`} {
		e := MustParse(src)
		again, err := Parse(e.String())
		if err != nil {
			t.Errorf("%q prints as %q, which does not reparse: %v", src, e.String(), err)
			continue
		}
		if again.String() != e.String() {
			t.Errorf("%q: print %q reprints as %q", src, e.String(), again.String())
		}
		if EvalRaw(again, root) != EvalRaw(e, root) {
			t.Errorf("%q: reparsing its print %q changes the answer", src, e.String())
		}
	}
}

// TestPropParseStringRoundTrip: String() of every random query reparses to
// an identical AST (compared via String()).
func TestPropParseStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := RandomQuery(r, RandomSpec{AllowNot: true})
		s := e.String()
		e2, err := Parse(s)
		if err != nil {
			t.Logf("Parse(%q): %v", s, err)
			return false
		}
		return e2.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestExample21 reproduces Example 2.1 of the paper: the query
// //stock[code/text() = "yhoo"] compiles to a QList with exactly ten
// subqueries of the expected shapes, ending in the ε[...] wrapper.
func TestExample21(t *testing.T) {
	p := MustCompileString(`//stock[code/text() = "yhoo"]`)
	if got := p.QListSize(); got != 10 {
		t.Fatalf("QListSize = %d, want 10 (Example 2.1)\n%s", got, p)
	}
	counts := make(map[Kind]int)
	for _, s := range p.Subs {
		counts[s.Kind]++
	}
	want := map[Kind]int{
		KLabel: 2, KText: 1, KAnd: 2, KFilter: 3, KChild: 1, KDesc: 1,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("count of %v = %d, want %d\n%s", k, counts[k], n, p)
		}
	}
	// The wrapper ε[q9] must be last, referencing the // subquery.
	root := p.Subs[p.Root()]
	if root.Kind != KFilter || root.B != -1 {
		t.Errorf("root subquery = %+v, want trailing filter", root)
	}
	if p.Subs[root.A].Kind != KDesc {
		t.Errorf("root operand kind = %v, want desc", p.Subs[root.A].Kind)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCompileHashConsing(t *testing.T) {
	// //a && //a: the two conjuncts must share their subqueries.
	p := MustCompileString(`//a && //a`)
	and := p.Subs[p.Subs[p.Root()].A]
	if and.Kind != KAnd {
		t.Fatalf("expected And below the wrapper, got %v", and.Kind)
	}
	if and.A != and.B {
		t.Errorf("identical conjuncts were not shared: %d vs %d", and.A, and.B)
	}
}

func TestCompileQListSizes(t *testing.T) {
	// The experiment workloads advertise |QList| ∈ {2, 8, 15, 23}; pin a few
	// simple queries so that size regressions are caught here first.
	cases := []struct {
		src  string
		size int
	}{
		{`.`, 2},   // ε + wrapper
		{`//a`, 4}, // label, desc-merged filter, desc, wrapper
		{`label() = a`, 2},
	}
	for _, c := range cases {
		p := MustCompileString(c.src)
		if p.QListSize() != c.size {
			t.Errorf("QListSize(%q) = %d, want %d\n%s", c.src, p.QListSize(), c.size, p)
		}
	}
}

func TestProgramEncodeDecode(t *testing.T) {
	p := MustCompileString(`//broker[//stock/code = "goog" && !(//stock/code = "yhoo")]`)
	enc := p.Encode()
	q, err := DecodeProgram(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Subs) != len(p.Subs) {
		t.Fatalf("decoded %d subs, want %d", len(q.Subs), len(p.Subs))
	}
	for i := range p.Subs {
		if p.Subs[i] != q.Subs[i] {
			t.Errorf("sub %d: got %+v, want %+v", i, q.Subs[i], p.Subs[i])
		}
	}
}

func TestDecodeProgramErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},                        // zero subqueries
		{200, 1, 1},                // count exceeds buffer
		{1, 99, 0, 0, 0},           // unknown kind
		{1, byte(KChild), 0, 0, 0}, // child without operand
		{1, byte(KChild), 5, 0, 0}, // forward reference
		append(MustCompileString(`a`).Encode(), 7), // trailing byte
	}
	for i, buf := range cases {
		if _, err := DecodeProgram(buf); err == nil {
			t.Errorf("case %d: DecodeProgram succeeded, want error", i)
		}
	}
}

// TestPropCompileValidates: every random query compiles to a valid,
// codec-round-trippable program.
func TestPropCompileValidates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := RandomQuery(r, RandomSpec{AllowNot: true})
		p := Compile(e)
		if p.Validate() != nil {
			return false
		}
		q, err := DecodeProgram(p.Encode())
		if err != nil || len(q.Subs) != len(p.Subs) {
			return false
		}
		for i := range p.Subs {
			if p.Subs[i] != q.Subs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// fig1b builds the stock portfolio of Fig. 1(b) (slightly reduced).
func fig1b() *xmltree.Node {
	stock := func(code, buy, sell string) *xmltree.Node {
		return xmltree.NewElement("stock", "",
			xmltree.NewElement("code", code),
			xmltree.NewElement("buy", buy),
			xmltree.NewElement("sell", sell))
	}
	return xmltree.NewElement("portofolio", "",
		xmltree.NewElement("broker", "",
			xmltree.NewElement("name", "Bache"),
			xmltree.NewElement("market", "",
				xmltree.NewElement("name", "NYSE"),
				stock("IBM", "80", "78")),
			xmltree.NewElement("market", "",
				xmltree.NewElement("name", "NASDAQ"),
				stock("GOOG", "374", "373"),
				stock("YHOO", "33", "35"))),
		xmltree.NewElement("broker", "",
			xmltree.NewElement("name", "Merill Lynch"),
			xmltree.NewElement("market", "",
				xmltree.NewElement("name", "NASDAQ"),
				stock("GOOG", "370", "372"),
				stock("AAPL", "71", "65"))))
}

func TestEvalRawOnPortfolio(t *testing.T) {
	root := fig1b()
	cases := []struct {
		src  string
		want bool
	}{
		{`//stock[code/text() = "yhoo"]`, false}, // case-sensitive
		{`//stock[code/text() = "YHOO"]`, true},
		{`//stock[code = "GOOG" && sell = "373"]`, true},
		{`//stock[code = "GOOG" && sell = "999"]`, false},
		{`/portofolio/broker/name = "Merill Lynch"`, true},
		{`/portofolio/broker/name = "Lehman"`, false},
		{`/broker`, false}, // leading / anchors at the context node
		{`//broker[//stock/code = "GOOG" && !(//stock/code = "YHOO")]`, true},
		{`//market[name = "NYSE"] && //market[name = "NASDAQ"]`, true},
		{`label() = portofolio`, true},
		{`label() = broker`, false},
		{`//name[text() = "Bache"]`, true},
		{`broker/market/stock`, true},
		{`broker/stock`, false},
		{`.//stock`, true},
		{`*`, true},
		{`.`, true},
		{`/`, true},
		{`stock`, false},
		{`!(//stock[code = "MSFT"])`, true},
		{`//stock[code = "AAPL"][sell = "65"]`, true},
		{`//stock[code = "AAPL"][sell = "66"]`, false},
		{`a//`, false},
		{`broker//`, true},
		{`//.`, true},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := EvalRaw(e, root); got != c.want {
			t.Errorf("EvalRaw(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalRawDescOrSelfSemantics(t *testing.T) {
	// Paper semantics (Example 2.1): //A holds at a context node labeled A
	// itself, because // is descendant-or-self and the label merges into
	// its filter.
	root := xmltree.NewElement("a", "", xmltree.NewElement("b", ""))
	if !EvalRaw(MustParse(`//a`), root) {
		t.Error("//a must hold at a context node labeled a (descendant-or-self)")
	}
	if !EvalRaw(MustParse(`//b`), root) {
		t.Error("//b must hold via the child")
	}
	if EvalRaw(MustParse(`//c`), root) {
		t.Error("//c must not hold")
	}
	// But //*/x requires real descent: //*/b is b under some child.
	if EvalRaw(MustParse(`//*/b`), root) {
		t.Error("//*/b must not hold: b is a child of the root, not of a child")
	}
}

func TestQualifierOnDescStep(t *testing.T) {
	// a//[q] filters the descendant-or-self set by q.
	root := xmltree.NewElement("r", "",
		xmltree.NewElement("a", "",
			xmltree.NewElement("m", "", xmltree.NewElement("k", "v"))))
	if !EvalRaw(MustParse(`a//[k = "v"]`), root) {
		t.Error("a//[k = \"v\"] should hold")
	}
	if EvalRaw(MustParse(`a//[k = "w"]`), root) {
		t.Error("a//[k = \"w\"] should not hold")
	}
}
