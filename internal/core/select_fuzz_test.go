package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The fragmentation shapes FuzzSelectTransfer draws from.
const (
	shapeStar   = iota // sub-fragments are children of the root fragment
	shapeChain         // each sub-fragment nests in the previous one
	shapeRandom        // SplitRandom, fragments spread over four sites
	shapeShared        // SplitRandom, every sub-fragment on one site
	numShapes
)

// fragmentForFuzz splits tree in the given shape into at most k+1
// fragments and places them on sites.
func fragmentForFuzz(r *rand.Rand, tree *xmltree.Node, shape, k int) (*frag.Forest, frag.Assignment, error) {
	forest := frag.NewForest(tree)
	switch shape {
	case shapeStar:
		for _, c := range append([]*xmltree.Node(nil), tree.Children...) {
			if k == 0 {
				break
			}
			if _, err := forest.Split(c); err != nil {
				return nil, nil, err
			}
			k--
		}
	case shapeChain:
		// Follow the first child that has children, splitting on the way
		// down, so every cut lies inside the fragment the previous one made.
		for n := tree; k > 0; {
			i := slices.IndexFunc(n.Children, func(c *xmltree.Node) bool { return !c.Virtual && len(c.Children) > 0 })
			if i < 0 {
				break
			}
			n = n.Children[i]
			if _, err := forest.Split(n); err != nil {
				return nil, nil, err
			}
			k--
		}
	default:
		if err := forest.SplitRandom(r, k); err != nil {
			return nil, nil, err
		}
	}
	assign := make(frag.Assignment)
	for _, id := range forest.IDs() {
		switch {
		case id == forest.RootID():
			assign[id] = "S0"
		case shape == shapeShared:
			assign[id] = "S1"
		default:
			assign[id] = frag.SiteID(fmt.Sprintf("S%d", r.Intn(4)))
		}
	}
	return forest, assign, nil
}

// FuzzSelectTransfer is the selection differential: over a random tree,
// fragmented as a star, a chain, at random, or with every sub-fragment on
// one site (card(F_Si) ≥ 2), a random selection path must select through
// SelectParBoX exactly the nodes eval.SelectLocal — the AST interpreter
// on the unfragmented tree — selects, and CountParBoX must count them.
// Neither oracle shares code with the guard masks, the tag sweep or the
// transfer composition.
func FuzzSelectTransfer(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(shape+1), uint8(40), uint8(shape), uint8(4))
		f.Add(int64(100+shape), uint8(90), uint8(shape), uint8(9))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, shape, splits uint8) {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(size%120)})
		orig := tree.Clone()
		forest, assign, err := fragmentForFuzz(r, tree, int(shape)%numShapes, 1+int(splits%10))
		if err != nil {
			t.Skip(err) // SplitRandom asks for more cuts than the tree allows
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
			t.Skip(err) // a chain past the 64-step limit
		}
		want, err := eval.SelectLocal(orig, sp)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Deploy(cluster.New(cluster.DefaultCostModel()), forest, assign)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		sel, err := eng.SelectParBoX(ctx, sp)
		if err != nil {
			t.Fatalf("SelectParBoX(%q): %v", sp.Source, err)
		}
		var got [][]int
		for id, paths := range sel.Paths {
			for _, p := range paths {
				got = append(got, absolutize(t, forest, id, p))
			}
		}
		slices.SortFunc(got, slices.Compare)
		if fmt.Sprint(got) != fmt.Sprint(want) || sel.Count != int64(len(want)) {
			t.Fatalf("SelectParBoX(%q) over %d fragments: %v (count %d), SelectLocal %v", sp.Source, forest.Count(), got, sel.Count, want)
		}
		cnt, err := eng.CountParBoX(ctx, sp)
		if err != nil {
			t.Fatalf("CountParBoX(%q): %v", sp.Source, err)
		}
		if cnt.Count != int64(len(want)) {
			t.Fatalf("CountParBoX(%q) = %d, SelectLocal selects %d", sp.Source, cnt.Count, len(want))
		}
		for _, rep := range []Report{sel, cnt} {
			for site, v := range rep.Visits {
				if v > 2 {
					t.Fatalf("%q: %s visited %d times, want ≤ 2", sp.Source, site, v)
				}
			}
		}
	})
}
