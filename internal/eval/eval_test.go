package eval

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/boolexpr"
	"repro/internal/fixtures"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// example21 is the query of Examples 2.1/3.1-3.3 (text values adjusted to
// this repository's fixture, which stores codes in upper case).
const example21 = `//stock[code/text() = "YHOO"]`

func TestCentralizedOnPortfolio(t *testing.T) {
	doc := fixtures.Portfolio()
	cases := []struct {
		src  string
		want bool
	}{
		{example21, true},
		{`//stock[code/text() = "MSFT"]`, false},
		{`//a && //b`, false},
		{`//broker && //market[name = "NYSE"]`, true},
		{`/portofolio/broker/name = "Merill Lynch"`, true},
		{`//stock[code = "GOOG" && sell = "373"]`, true},
		{`//stock[code = "GOOG" && sell = "999"]`, false},
		{`!(//stock[code = "YHOO"]) || //market`, true},
	}
	for _, c := range cases {
		prog := xpath.MustCompileString(c.src)
		got, steps, err := Evaluate(doc, prog)
		if err != nil {
			t.Errorf("Evaluate(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("Evaluate(%q) = %v, want %v", c.src, got, c.want)
		}
		if want := int64(doc.Size() * prog.QListSize()); steps != want {
			t.Errorf("steps for %q = %d, want |T|·|QList| = %d", c.src, steps, want)
		}
	}
}

func TestEvaluateRejectsVirtual(t *testing.T) {
	doc := xmltree.NewElement("r", "", xmltree.NewVirtual(1))
	prog := xpath.MustCompileString(`//a`)
	if _, _, err := Evaluate(doc, prog); err == nil {
		t.Error("Evaluate over a fragment with virtual nodes must fail")
	}
	if _, _, err := BottomUp(xmltree.NewVirtual(2), prog); err == nil {
		t.Error("BottomUp at a virtual root must fail")
	}
	if _, _, err := BottomUp(nil, prog); err == nil {
		t.Error("BottomUp at a nil root must fail")
	}
}

// TestExample33 replays the running example end to end: fragments F0–F3 of
// Fig. 2, the query of Example 2.1, and the unification of Example 3.3,
// which concludes that the query is true.
func TestExample33(t *testing.T) {
	forest, orig, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	st, err := fixtures.Fig2SourceTree(forest)
	if err != nil {
		t.Fatal(err)
	}
	prog := xpath.MustCompileString(example21)

	triplets, _, err := EvaluateAll(forest, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf fragments (F2, F3) must have fully constant triplets: "the
	// vectors of leaf fragments in the source tree contain no variables".
	for _, leaf := range []xmltree.FragmentID{2, 3} {
		tr := legacyOf(triplets[leaf])
		for _, vec := range [][]*boolexpr.Formula{tr.V, tr.CV, tr.DV} {
			for q, f := range vec {
				if !f.IsConst() {
					t.Errorf("leaf F%d entry %d not constant: %v", leaf, q, f)
				}
			}
		}
	}
	// F1 holds the virtual node for F2, so its formulas may only mention
	// F2's variables — and never CV variables (a parent consumes only V
	// and DV of a child).
	tr1 := legacyOf(triplets[1])
	for _, vec := range [][]*boolexpr.Formula{tr1.V, tr1.CV, tr1.DV} {
		for _, f := range vec {
			for _, v := range f.VarSet() {
				if v.Frag != 2 {
					t.Errorf("F1 formula mentions fragment %d: %v", v.Frag, f)
				}
				if v.Vec == boolexpr.VecCV {
					t.Errorf("F1 formula mentions a CV variable: %v", f)
				}
			}
		}
	}

	ans, work, err := Solve(st, triplets, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !ans {
		t.Error("Example 3.3: query must evaluate to true")
	}
	if work <= 0 {
		t.Error("Solve reported no work")
	}
	// Differential check against the centralized evaluation.
	want, _, err := Evaluate(orig, prog)
	if err != nil {
		t.Fatal(err)
	}
	if ans != want {
		t.Errorf("distributed answer %v != centralized %v", ans, want)
	}
}

func TestSolveMissingTriplet(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	st, err := fixtures.Fig2SourceTree(forest)
	if err != nil {
		t.Fatal(err)
	}
	prog := xpath.MustCompileString(example21)
	triplets, _, err := EvaluateAll(forest, prog)
	if err != nil {
		t.Fatal(err)
	}
	delete(triplets, 2)
	if _, _, err := Solve(st, triplets, prog); err == nil {
		t.Error("Solve with a missing triplet must fail")
	}
}

func TestSolvePartialLazySemantics(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	st, err := fixtures.Fig2SourceTree(forest)
	if err != nil {
		t.Fatal(err)
	}
	// The LazyParBoX example of Section 4: a query answered by depth ≤ 1
	// fragments alone.
	prog := xpath.MustCompileString(`/portofolio/broker/name = "Merill Lynch"`)
	triplets, _, err := EvaluateAll(forest, prog)
	if err != nil {
		t.Fatal(err)
	}
	partial := map[xmltree.FragmentID]Triplet{0: triplets[0], 1: triplets[1], 3: triplets[3]}
	ans, _, resolved, err := SolvePartial(st, partial, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !resolved || !ans {
		t.Errorf("SolvePartial(depth ≤ 1) = (%v, resolved=%v), want (true, true)", ans, resolved)
	}
	// The YHOO query needs F3 (it is satisfied only there); without F3 and
	// F2 the answer must stay unresolved.
	prog2 := xpath.MustCompileString(example21)
	triplets2, _, err := EvaluateAll(forest, prog2)
	if err != nil {
		t.Fatal(err)
	}
	partial2 := map[xmltree.FragmentID]Triplet{0: triplets2[0]}
	_, _, resolved2, err := SolvePartial(st, partial2, prog2)
	if err != nil {
		t.Fatal(err)
	}
	if resolved2 {
		t.Error("SolvePartial without F1/F2/F3 must stay unresolved for the YHOO query")
	}
}

func TestResolveTriplet(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	prog := xpath.MustCompileString(example21)
	triplets, _, err := EvaluateAll(forest, prog)
	if err != nil {
		t.Fatal(err)
	}
	// F1 resolved with F2's (constant) triplet must become constant.
	resolved, _, err := ResolveTriplet(1, triplets[1], map[xmltree.FragmentID]Triplet{2: triplets[2]}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for q, f := range legacyOf(resolved).V {
		if !f.IsConst() {
			t.Errorf("resolved V[%d] not constant: %v", q, f)
		}
	}
	// Without the sub-triplet it must fail with ErrUnresolved.
	if _, _, err := ResolveTriplet(1, triplets[1], nil, prog); !errors.Is(err, ErrUnresolved) {
		t.Errorf("ResolveTriplet without subs: err = %v, want ErrUnresolved", err)
	}
}

func TestTripletCodec(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	prog := xpath.MustCompileString(example21)
	triplets, _, err := EvaluateAll(forest, prog)
	if err != nil {
		t.Fatal(err)
	}
	for id, tr := range triplets {
		enc := tr.Encode()
		got, err := DecodeTriplet(enc)
		if err != nil {
			t.Errorf("F%d: %v", id, err)
			continue
		}
		if !got.Equal(tr) {
			t.Errorf("F%d: triplet codec round trip mismatch", id)
		}
		if tr.EncodedSize() != len(enc) {
			t.Errorf("F%d: EncodedSize %d != len %d", id, tr.EncodedSize(), len(enc))
		}
	}
	if _, err := DecodeTriplet(nil); err == nil {
		t.Error("DecodeTriplet(nil) must fail")
	}
	if _, err := DecodeTriplet(append(triplets[0].Encode(), 1)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

// TestPropCentralizedMatchesRawSemantics is the differential test of the
// evaluator: Procedure bottomUp over a complete tree agrees with the naive
// set-based interpreter on random trees and random queries.
func TestPropCentralizedMatchesRawSemantics(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 1 + int(sizeRaw%60)})
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		want := xpath.EvalRaw(q, tree)
		got, _, err := Evaluate(tree, xpath.Compile(q))
		if err != nil {
			t.Logf("Evaluate(%q): %v", q.String(), err)
			return false
		}
		if got != want {
			t.Logf("query %q tree %v: bottomUp=%v raw=%v", q.String(), tree, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// TestPropDistributedMatchesCentralized is the paper's central claim as a
// property: for ANY fragmentation of ANY tree and ANY XBL query, partial
// evaluation of the fragments plus evalST equals centralized evaluation.
func TestPropDistributedMatchesCentralized(t *testing.T) {
	f := func(seed int64, sizeRaw, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(sizeRaw%80)})
		orig := tree.Clone()
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%12)); err != nil {
			return false
		}
		// Random assignment over up to 4 sites.
		sites := []frag.SiteID{"S0", "S1", "S2", "S3"}
		assign := make(frag.Assignment)
		for _, id := range forest.IDs() {
			assign[id] = sites[r.Intn(len(sites))]
		}
		st, err := frag.BuildSourceTree(forest, assign)
		if err != nil {
			return false
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)
		triplets, _, err := EvaluateAll(forest, prog)
		if err != nil {
			return false
		}
		got, _, err := Solve(st, triplets, prog)
		if err != nil {
			t.Logf("Solve(%q): %v", q.String(), err)
			return false
		}
		want, _, err := Evaluate(orig, prog)
		if err != nil {
			return false
		}
		if got != want {
			t.Logf("query %q: distributed=%v centralized=%v (seed %d)", q.String(), got, want, seed)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropTripletCodecRoundTrip: triplets of random fragmented evaluations
// survive the wire codec.
func TestPropTripletCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 30})
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 4); err != nil {
			return false
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)
		triplets, _, err := EvaluateAll(forest, prog)
		if err != nil {
			return false
		}
		for _, tr := range triplets {
			got, err := DecodeTriplet(tr.Encode())
			if err != nil || !got.Equal(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestStepsAccounting pins the total-computation measure: BottomUp performs
// exactly |F_j|·|QList| steps per fragment, virtual placeholders included.
func TestStepsAccounting(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	prog := xpath.MustCompileString(example21)
	for _, id := range forest.IDs() {
		fr, _ := forest.Fragment(id)
		_, steps, err := BottomUp(fr.Root, prog)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(fr.Size() * prog.QListSize()); steps != want {
			t.Errorf("F%d: steps = %d, want %d", id, steps, want)
		}
	}
}

// TestTripletSizeBound verifies the communication bound: a fragment's
// triplet size is O(|q|·(1+card(F_j))) — it grows with the number of its
// OWN virtual nodes, never with fragment size.
func TestTripletSizeBound(t *testing.T) {
	prog := xpath.MustCompileString(example21)
	build := func(extra int) int {
		// A fragment with one virtual node and `extra` padding nodes.
		root := xmltree.NewElement("r", "")
		for i := 0; i < extra; i++ {
			root.AppendChild(xmltree.NewElement("pad", ""))
		}
		root.AppendChild(xmltree.NewVirtual(7))
		tr, _, err := BottomUp(root, prog)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Size()
	}
	small, large := build(2), build(2000)
	if small != large {
		t.Errorf("triplet size depends on fragment size: %d vs %d", small, large)
	}
}
