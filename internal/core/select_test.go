package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/fixtures"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// absPath is the document-root-relative path of a node.
func absPath(node *xmltree.Node) []int {
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

// absolutize converts a fragment-relative selection path into a
// document-absolute one: the virtual node that stands for the fragment
// occupies exactly the position the subtree had before the split, so the
// prefix is the (recursively absolutized) path of that virtual node.
func absolutize(t *testing.T, forest *frag.Forest, id xmltree.FragmentID, rel []int) []int {
	t.Helper()
	fr, ok := forest.Fragment(id)
	if !ok {
		t.Fatalf("missing fragment %d", id)
	}
	if fr.Parent == frag.NoParent {
		return rel
	}
	parent, _ := forest.Fragment(fr.Parent)
	var vnode *xmltree.Node
	for _, v := range parent.Root.VirtualNodes() {
		if v.Frag == id {
			vnode = v
			break
		}
	}
	if vnode == nil {
		t.Fatalf("fragment %d has no virtual node in its parent", id)
	}
	prefix := absolutize(t, forest, fr.Parent, absPath(vnode))
	return append(append([]int(nil), prefix...), rel...)
}

func TestSelectParBoXOnFig2(t *testing.T) {
	forest, orig, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.DefaultCostModel())
	eng, err := Deploy(c, forest, frag.Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S2"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, src := range []string{
		`//stock`,
		`//stock[code = "GOOG"]/sell`,
		`//market[name = "NASDAQ"]`,
		`broker/name`,
		`//nothing`,
	} {
		sp, err := xpath.CompileSelectString(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		rep, err := eng.SelectParBoX(ctx, sp)
		if err != nil {
			t.Fatalf("SelectParBoX(%q): %v", src, err)
		}
		// Oracle over the unfragmented original.
		e, _ := xpath.Parse(src)
		want, err := xpath.SelectRaw(e, orig)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := make(map[string]bool, len(want))
		for _, n := range want {
			wantSet[fmt.Sprint(absPath(n))] = true
		}
		if rep.Count != int64(len(wantSet)) {
			t.Errorf("%q: selected %d, want %d", src, rep.Count, len(wantSet))
			continue
		}
		for id, paths := range rep.Paths {
			for _, rel := range paths {
				key := fmt.Sprint(absolutize(t, forest, id, rel))
				if !wantSet[key] {
					t.Errorf("%q: spurious selection %s in F%d", src, key, id)
				}
			}
		}
	}
}

// selectShapes are the placements the visit bound is checked on: a star
// (every sub-fragment a child of the root, one site each), a chain of
// depth 4 (one site per fragment) and the same chain with all three
// sub-fragments on one site, so card(F_S1) = 3 and depth(FT) = 3.
func selectShapes(t *testing.T) map[string]*Engine {
	t.Helper()
	deploy := func(forest *frag.Forest, assign frag.Assignment) *Engine {
		eng, err := Deploy(cluster.New(cluster.DefaultCostModel()), forest, assign)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	doc := fixtures.Portfolio()
	star := frag.NewForest(doc)
	starAssign := frag.Assignment{0: "S0"}
	for _, broker := range append([]*xmltree.Node(nil), doc.Children...) {
		id, err := star.Split(broker)
		if err != nil {
			t.Fatal(err)
		}
		starAssign[id] = frag.SiteID(fmt.Sprintf("S%d", id))
	}
	chainForest := func() *frag.Forest {
		// r/a/b/a/b/a/b/a with a stock leaf at every level; split at every a.
		leaf := func() *xmltree.Node { return fixtures.Stock("GOOG", "1", "2") }
		n := xmltree.NewElement("a", "", leaf())
		for i := 0; i < 3; i++ {
			n = xmltree.NewElement("a", "", leaf(), xmltree.NewElement("b", "", n))
		}
		root := xmltree.NewElement("r", "", n)
		f := frag.NewForest(root)
		for _, a := range root.FindAll("a")[1:] {
			if _, err := f.Split(a); err != nil {
				t.Fatal(err)
			}
		}
		if f.Count() != 4 {
			t.Fatalf("chain has %d fragments, want 4", f.Count())
		}
		return f
	}
	return map[string]*Engine{
		"star":      deploy(star, starAssign),
		"chain":     deploy(chainForest(), frag.Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S3"}),
		"card(F)=3": deploy(chainForest(), frag.Assignment{0: "S0", 1: "S1", 2: "S1", 3: "S1"}),
	}
}

// TestSelectVisitsBound: visit 1 is one evalQual per site and visit 2 one
// selectTransfer per site, in one parallel scatter whatever the depth of
// the source tree — so no site is visited more than twice, for select and
// for count, on a star, a chain, and a chain whose three sub-fragments
// share one site.
func TestSelectVisitsBound(t *testing.T) {
	ctx := context.Background()
	for shape, eng := range selectShapes(t) {
		for _, src := range []string{`//stock`, `//a/stock/code`, `r/a/b/a`} {
			sp, err := xpath.CompileSelectString(src)
			if err != nil {
				t.Fatal(err)
			}
			for mode, run := range map[string]func(context.Context, *xpath.SelectProgram) (Report, error){
				"select": eng.SelectParBoX, "count": eng.CountParBoX,
			} {
				rep, err := run(ctx, sp)
				if err != nil {
					t.Fatalf("%s %s %q: %v", shape, mode, src, err)
				}
				for _, site := range eng.SourceTree().Sites() {
					want := int64(2)
					if site == eng.Coordinator() {
						want = 0 // the coordinator's calls to itself are not visits
					}
					if got := rep.Visits[site]; got != want {
						t.Errorf("%s %s %q: %s visited %d times, want %d", shape, mode, src, site, got, want)
					}
				}
			}
		}
	}
}

// TestSelectSkipsDeadFragments: a fragment no live state reaches still
// gets visit 2 — it is part of its site's one call, sent before any
// arrival is known — but contributes no paths and no count. Selecting
// the root's broker children never enters a market fragment.
func TestSelectSkipsDeadFragments(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.DefaultCostModel())
	eng, err := Deploy(c, forest, frag.Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S2"})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xpath.CompileSelectString(`broker`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.SelectParBoX(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != 2 {
		t.Fatalf("selected %d brokers, want 2", rep.Count)
	}
	for id := range rep.Paths {
		if id != 0 {
			t.Errorf("dead fragment F%d contributed paths %v", id, rep.Paths[id])
		}
	}
	for _, site := range []frag.SiteID{"S1", "S2"} {
		if got := rep.Visits[site]; got > 2 {
			t.Errorf("%s visits = %d, want ≤ 2", site, got)
		}
		if rep.PerSite[site] != 0 {
			t.Errorf("%s counted %d selections from dead fragments", site, rep.PerSite[site])
		}
	}
}

// TestPropSelectDistributedMatchesOracle is the selection analogue of the
// central differential property: any fragmentation, any path query.
func TestPropSelectDistributedMatchesOracle(t *testing.T) {
	f := func(seed int64, sizeRaw, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(sizeRaw%60)})
		orig := tree.Clone()
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%8)); err != nil {
			return false
		}
		sites := []frag.SiteID{"S0", "S1", "S2"}
		assign := make(frag.Assignment)
		for _, id := range forest.IDs() {
			assign[id] = sites[r.Intn(len(sites))]
		}
		c := cluster.New(cluster.DefaultCostModel())
		eng, err := Deploy(c, forest, assign)
		if err != nil {
			return false
		}
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
		rep, err := eng.SelectParBoX(context.Background(), sp)
		if err != nil {
			t.Logf("SelectParBoX(%q): %v (seed %d)", e.String(), err, seed)
			return false
		}
		want, err := xpath.SelectRaw(e, orig)
		if err != nil {
			return false
		}
		wantSet := make(map[string]bool, len(want))
		for _, n := range want {
			wantSet[fmt.Sprint(absPath(n))] = true
		}
		if rep.Count != int64(len(wantSet)) {
			t.Logf("%q: got %d, want %d (seed %d)", e.String(), rep.Count, len(wantSet), seed)
			return false
		}
		for id, paths := range rep.Paths {
			for _, rel := range paths {
				if !wantSet[fmt.Sprint(absolutize(t, forest, id, rel))] {
					t.Logf("%q: spurious selection in F%d (seed %d)", e.String(), id, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSelectCodecErrors(t *testing.T) {
	if _, _, err := decodeSelectTransferReq(nil); err == nil {
		t.Error("empty select request accepted")
	}
	if _, err := decodeSelectTransferResp([]byte{200}, true); err == nil {
		t.Error("bad select response accepted")
	}
	sp, err := xpath.CompileSelectString(`//a`)
	if err != nil {
		t.Fatal(err)
	}
	q := selectTransferReq{paths: true, frags: []fragDomain{{id: 1, domain: eval.StartArrival()}}}
	sp2, got, err := decodeSelectTransferReq(encodeSelectTransferReq(encodeSelectProgram(sp), q))
	if err != nil {
		t.Fatal(err)
	}
	if !got.paths || len(got.frags) != 1 || got.frags[0] != q.frags[0] || len(got.vecs) != 0 || len(sp2.Chain) != len(sp.Chain) {
		t.Errorf("select request round trip mismatch: %+v", got)
	}
	// A tag group claiming more paths than the frame holds, and a transfer
	// over more chain positions than a selection program can have.
	tooLong := append([]byte{1, 0, 1, 3, xpath.MaxSelectChain + 1}, make([]byte, 4*(xpath.MaxSelectChain+1)+2)...)
	for _, bad := range [][]byte{
		{1, 0, 0, 1, 2, 0, 5, 0}, // F0, no forwards, tag {2,0} with 5 paths
		tooLong,                  // F0 forwards to F3 over 65 positions
	} {
		if _, err := decodeSelectTransferResp(bad, true); !errors.Is(err, ErrBadMessage) {
			t.Errorf("decodeSelectTransferResp(%x) = %v, want ErrBadMessage", bad, err)
		}
	}
	// Response round trip with paths, tags and transfers.
	fts := fixtureTransfers(true)
	back, err := decodeSelectTransferResp(encodeSelectTransferResp(fts, true), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || fmt.Sprint(back[0].Cands) != fmt.Sprint(fts[0].Cands) {
		t.Errorf("paths round trip: %+v", back)
	}
	// Both tag groups met: the paths come back merged in document order.
	sel, n := back[0].Select(eval.Arrival{States: 6})
	if fmt.Sprint(sel) != "[[] [0 1 2] [300 0]]" || n != 3 {
		t.Errorf("Select over both groups = %v, %d", sel, n)
	}
	in := eval.Arrival{States: 2}
	if got, want := back[0].Forward[4].Apply(in), fts[0].Forward[4].Apply(in); got != want {
		t.Errorf("transfer round trip: %+v, want %+v", got, want)
	}
}
