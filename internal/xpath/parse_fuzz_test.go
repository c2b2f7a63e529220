package xpath

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// parseSeeds are the parser-test queries, the XMark query sets and one
// instance of each benchmark query template.
func parseSeeds() []string {
	seeds := append([]string(nil), parseAccepted...)
	for _, qs := range []map[string]string{xmark.NamedQueries, xmark.SelectionQueries} {
		for _, q := range qs {
			seeds = append(seeds, q)
		}
	}
	for _, q := range xmark.Queries {
		seeds = append(seeds, q)
	}
	return append(seeds,
		`//emailaddress = "mailto:p17@example.com"`,
		`//closed_auction/price = "17.05"`,
		`//item[location = "Kenya" && quantity = "2"] && //zipcode = "12345"`,
		`//person[name = "Ada Ahmed" && address/city = "Seoul"] || //person[phone = "+1234567"]`,
		`!(//closed_auction[price = "5.00"]) && label() = site`,
		`//open_auction[bidder/increase = "trigger-006"][type = "Regular"]`,
		`//person[address[zipcode = "trigger-007" && country]]`,
		`//a = 'x"y'`,
		`//b = 'C:\tmp'`,
	)
}

// FuzzParse drives the parser with arbitrary text. For accepted input,
// printing the AST and parsing the print must reach a fixed point (the
// reprint equals the print) and must not change EvalRaw's answer on the
// portfolio fixture or on a small random tree. eval.SelectLocal reparses a
// SelectProgram's printed Source, so a print that drifts would make the
// oracle answer a different query.
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	trees := []*xmltree.Node{
		fixtures.Portfolio(),
		xmltree.RandomTree(rand.New(rand.NewSource(1)), xmltree.RandomSpec{Nodes: 24}),
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		printed := e.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not reparse: %v", src, printed, err)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("%q: print %q reprints as %q", src, printed, reprinted)
		}
		// Each qualifier level multiplies EvalRaw's work by the tree size;
		// past three levels a short input can run for minutes.
		if strings.Count(src, "[") > 3 {
			return
		}
		for _, tree := range trees {
			if EvalRaw(e, tree) != EvalRaw(again, tree) {
				t.Fatalf("%q: reparsing its print %q changes the answer", src, printed)
			}
		}
	})
}
