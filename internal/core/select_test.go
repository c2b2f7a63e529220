package core

import (
	"context"
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

// TestSelectVisitsBound: pass 1 visits each site once; pass 2 adds at most
// one visit per fragment reached, so total visits per site ≤ 1+card(F_Si).
func TestSelectVisitsBound(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.DefaultCostModel())
	eng, err := Deploy(c, forest, frag.Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S2"})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xpath.CompileSelectString(`//stock`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.SelectParBoX(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Visits["S2"]; got > 3 { // 1 (pass 1) + 2 fragments
		t.Errorf("S2 visits = %d, want ≤ 3", got)
	}
	if got := rep.Visits["S1"]; got > 2 {
		t.Errorf("S1 visits = %d, want ≤ 2", got)
	}
}

// TestSelectSkipsDeadFragments: fragments no live state can reach are not
// contacted in pass 2.
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
	// Selecting broker names: paths of length ≤ 2 from the root never
	// enter the market fragments F1/F2/F3... F1 is under broker, so the
	// child chain dies at the market level. Use a path that cannot cross
	// into any sub-fragment: the root's immediate broker children.
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
	// Pass 2 must not have visited S1/S2 at all: 1 visit each (pass 1).
	if got := rep.Visits["S1"]; got != 1 {
		t.Errorf("S1 visits = %d, want 1 (pass 2 should skip it)", got)
	}
	if got := rep.Visits["S2"]; got != 1 {
		t.Errorf("S2 visits = %d, want 1 (pass 2 should skip it)", got)
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
	if _, _, _, _, err := decodeSelectReq(nil); err == nil {
		t.Error("empty select request accepted")
	}
	if _, _, err := decodeSelectResp([]byte{200}); err == nil {
		t.Error("bad select response accepted")
	}
	sp, err := xpath.CompileSelectString(`//a`)
	if err != nil {
		t.Fatal(err)
	}
	req := encodeSelectReq(encodeSelectProgram(sp), 1, eval.StartArrival(), nil)
	sp2, id, arr, cv, err := decodeSelectReq(req)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || arr != eval.StartArrival() || len(cv) != 0 || len(sp2.Chain) != len(sp.Chain) {
		t.Errorf("select request round trip mismatch: id=%d arr=%+v", id, arr)
	}
	// Response round trip with paths and forwards.
	paths := [][]int{{0, 1}, {2}}
	fwd := map[xmltree.FragmentID]eval.Arrival{7: {States: 5, Sticky: 4}}
	gotPaths, gotFwd, err := decodeSelectResp(encodeSelectResp(paths, fwd))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPaths) != 2 || fmt.Sprint(gotPaths) != fmt.Sprint(paths) {
		t.Errorf("paths round trip: %v", gotPaths)
	}
	if gotFwd[7] != (eval.Arrival{States: 5, Sticky: 4}) {
		t.Errorf("forward round trip: %+v", gotFwd)
	}
}
