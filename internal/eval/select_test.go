package eval

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fixtures"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// pathKey canonicalizes a child-index path for set comparison.
func pathKey(p []int) string { return fmt.Sprint(p) }

// absolutePathOf computes the child-index path of node from the root of
// the whole (unfragmented) tree.
func absolutePathOf(node *xmltree.Node) []int {
	var rev []int
	for n := node; n.Parent != nil; n = n.Parent {
		for i, c := range n.Parent.Children {
			if c == n {
				rev = append(rev, i)
				break
			}
		}
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func selectOracle(t *testing.T, src string, root *xmltree.Node) map[string]bool {
	t.Helper()
	e, err := xpath.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := xpath.SelectRaw(e, root)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		set[pathKey(absolutePathOf(n))] = true
	}
	return set
}

// selectComplete runs pass 2 over a complete tree: SelectFragment from the
// start state, with no sub-fragments.
func selectComplete(root *xmltree.Node, sp *xpath.SelectProgram) ([][]int, error) {
	res, err := SelectFragment(root, sp, nil, StartArrival())
	if err != nil {
		return nil, err
	}
	if len(res.Forward) != 0 {
		return nil, fmt.Errorf("complete tree forwarded states to %v", res.Forward)
	}
	return res.Selected, nil
}

// TestSelectLocalAgainstOracle: on the portfolio, pass 2 over the complete
// tree selects exactly the oracle's node set, and SelectLocal — the oracle
// adapter — returns that set as sorted paths.
func TestSelectLocalAgainstOracle(t *testing.T) {
	doc := fixtures.Portfolio()
	queries := []string{
		`//stock`,
		`//stock[code = "GOOG"]`,
		`broker/market`,
		`//market[name = "NASDAQ"]/stock/code`,
		`.`,
		`//name`,
		`broker//code`,
		`//nothing`,
		`*`,
		`/portofolio/broker`,
	}
	for _, src := range queries {
		sp, err := xpath.CompileSelectString(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		got, err := selectComplete(doc, sp)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		gotSet := make(map[string]bool, len(got))
		for _, p := range got {
			if gotSet[pathKey(p)] {
				t.Errorf("%q: duplicate selection %v", src, p)
			}
			gotSet[pathKey(p)] = true
		}
		want := selectOracle(t, src, doc)
		if len(gotSet) != len(want) {
			t.Errorf("%q: selected %d nodes, want %d", src, len(gotSet), len(want))
			continue
		}
		for k := range want {
			if !gotSet[k] {
				t.Errorf("%q: missing selection %s", src, k)
			}
		}
		local, err := SelectLocal(doc, sp)
		if err != nil {
			t.Fatalf("SelectLocal(%q): %v", src, err)
		}
		if fmt.Sprint(local) != fmt.Sprint(got) {
			t.Errorf("%q: SelectLocal = %v, pass 2 selected %v (both in document order)", src, local, got)
		}
	}
}

// TestPropSelectLocalMatchesOracle: random path queries over random trees:
// pass 2 over the complete tree selects exactly the oracle's node set.
func TestPropSelectLocalMatchesOracle(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 1 + int(sizeRaw%60)})
		var e xpath.Expr
		for {
			e = xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
			if _, ok := e.(*xpath.Path); ok {
				break
			}
		}
		sp, err := xpath.CompileSelect(e)
		if err != nil {
			return false
		}
		got, err := selectComplete(tree, sp)
		if err != nil {
			t.Logf("pass 2 on %q: %v", e.String(), err)
			return false
		}
		want, err := SelectLocal(tree, sp)
		if err != nil {
			t.Logf("SelectLocal(%q): %v", e.String(), err)
			return false
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Logf("%q: pass 2 selected %v, oracle %v (seed %d)", e.String(), got, want, seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestSelectLocalRejectsFragment: the oracle never answers over a tree
// that still holds virtual nodes — SelectRaw would silently skip them.
func TestSelectLocalRejectsFragment(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	root, _ := forest.Fragment(0)
	sp, err := xpath.CompileSelectString(`//stock`)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := SelectLocal(root.Root, sp); err == nil {
		t.Errorf("SelectLocal over the root fragment answered %v, want an error", got)
	}
}

func TestSelectFragmentForwarding(t *testing.T) {
	// Fragment with a virtual node: live states crossing the boundary
	// must be reported, not silently dropped.
	root := xmltree.NewElement("r", "",
		xmltree.NewElement("a", ""),
		xmltree.NewVirtual(5))
	sp, err := xpath.CompileSelectString(`//a`)
	if err != nil {
		t.Fatal(err)
	}
	vecs := map[xmltree.FragmentID]BoolVecs{
		5: {V: make([]bool, len(sp.Bool.Subs)), DV: make([]bool, len(sp.Bool.Subs))},
	}
	res, err := SelectFragment(root, sp, vecs, StartArrival())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Errorf("selected %d nodes in the local fragment, want 1 (the <a/>)", len(res.Selected))
	}
	fwd, ok := res.Forward[5]
	if !ok || fwd.States == 0 {
		t.Errorf("no states forwarded to the sub-fragment: %+v", res.Forward)
	}
	if fwd.Sticky == 0 {
		t.Error("descendant-or-self state must be sticky across the boundary")
	}
}

func TestSelectFragmentMissingSubVals(t *testing.T) {
	root := xmltree.NewElement("r", "", xmltree.NewVirtual(9))
	sp, err := xpath.CompileSelectString(`//a[b]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectFragment(root, sp, nil, StartArrival()); err == nil {
		t.Error("missing sub-fragment vectors must fail")
	}
}

func TestSolveAll(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	st, err := fixtures.Fig2SourceTree(forest)
	if err != nil {
		t.Fatal(err)
	}
	prog := xpath.MustCompileString(`//stock[code = "YHOO"]`)
	triplets, _, err := EvaluateAll(forest, prog)
	if err != nil {
		t.Fatal(err)
	}
	vecs, _, err := SolveAll(st, triplets, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 4 {
		t.Fatalf("resolved %d fragments", len(vecs))
	}
	// The root fragment's V[last] is the query answer (true).
	if !vecs[0].V[prog.Root()] {
		t.Error("SolveAll root answer should be true")
	}
	// Missing triplet must fail.
	delete(triplets, 3)
	if _, _, err := SolveAll(st, triplets, prog); err == nil {
		t.Error("SolveAll with a missing triplet must fail")
	}
}
