package views

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// deploy builds the Fig. 2 cluster with both query and view handlers.
func deploy(t *testing.T) (*cluster.Cluster, *frag.Forest, *frag.SourceTree) {
	t.Helper()
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.DefaultCostModel())
	_, err = core.Deploy(c, forest, frag.Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S2"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := fixtures.Fig2SourceTree(forest)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range st.Sites() {
		site, _ := c.Site(id)
		RegisterHandlers(site, c)
	}
	return c, forest, st
}

// oracle centrally evaluates the forest's current contents.
func oracle(t *testing.T, forest *frag.Forest, prog *xpath.Program) bool {
	t.Helper()
	doc, err := forest.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	e, err := xpath.Parse(prog.Source)
	if err != nil {
		t.Fatal(err)
	}
	return xpath.EvalRaw(e, doc)
}

func TestMaterialize(t *testing.T) {
	c, forest, st := deploy(t)
	prog := xpath.MustCompileString(`//stock[code = "GOOG" && sell = "373"]`)
	v, err := Materialize(context.Background(), c, "S0", st, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.Answer(), oracle(t, forest, prog); got != want {
		t.Errorf("Answer = %v, want %v", got, want)
	}
	if !v.Answer() {
		t.Error("fixture query should be true")
	}
}

func TestUpdateFlipsAnswer(t *testing.T) {
	c, forest, st := deploy(t)
	ctx := context.Background()
	// "Did GOOG reach a sell price of 376?" — the intro's standing query.
	prog := xpath.MustCompileString(`//stock[code = "GOOG" && sell = "376"]`)
	v, err := Materialize(ctx, c, "S0", st, prog)
	if err != nil {
		t.Fatal(err)
	}
	if v.Answer() {
		t.Fatal("initially false")
	}
	// F3 (Bache NASDAQ) holds GOOG at sell=373; the sell node is
	// market/stock[0]/sell → path to text holder.
	f3, _ := forest.Fragment(3)
	sell := f3.Root.FindAll("sell")[0]
	mc, err := v.Update(ctx, 3, []UpdateOp{{Op: OpSetText, Path: PathOf(sell), Text: "376"}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Answer() {
		t.Error("view did not flip to true after the price update")
	}
	if !mc.Recomputed {
		t.Error("a flipping update must re-solve")
	}
	if len(mc.SitesVisited) != 1 || mc.SitesVisited[0] != "S2" {
		t.Errorf("visited %v, want [S2] only (localized recomputation)", mc.SitesVisited)
	}
	if got, want := v.Answer(), oracle(t, forest, prog); got != want {
		t.Errorf("Answer = %v, oracle %v", got, want)
	}
	// Flip back.
	if _, err := v.Update(ctx, 3, []UpdateOp{{Op: OpSetText, Path: PathOf(sell), Text: "373"}}); err != nil {
		t.Fatal(err)
	}
	if v.Answer() {
		t.Error("view did not flip back")
	}
}

func TestUpdateIrrelevantSkipsSolve(t *testing.T) {
	c, forest, st := deploy(t)
	ctx := context.Background()
	prog := xpath.MustCompileString(`//stock[code = "GOOG" && sell = "376"]`)
	v, err := Materialize(ctx, c, "S0", st, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Insert an unrelated element in F3: triplet unchanged → no re-solve.
	f3, _ := forest.Fragment(3)
	name := f3.Root.FindAll("name")[0]
	mc, err := v.Update(ctx, 3, []UpdateOp{{Op: OpInsert, Path: PathOf(name), Label: "note", Text: "hi"}})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Recomputed {
		t.Error("an irrelevant insert must not re-solve (identical triplet)")
	}
	if got, want := v.Answer(), oracle(t, forest, prog); got != want {
		t.Errorf("Answer = %v, oracle %v", got, want)
	}
}

func TestUpdateVisitsOnlyOwningSite(t *testing.T) {
	c, forest, st := deploy(t)
	ctx := context.Background()
	prog := xpath.MustCompileString(`//stock[code = "YHOO"]`)
	v, err := Materialize(ctx, c, "S0", st, prog)
	if err != nil {
		t.Fatal(err)
	}
	c.Metrics().Reset()
	f1, _ := forest.Fragment(1)
	target := f1.Root.FindAll("name")[0]
	if _, err := v.Update(ctx, 1, []UpdateOp{{Op: OpInsert, Path: PathOf(target), Label: "x"}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Site("S1").Visits; got != 1 {
		t.Errorf("S1 visits = %d, want 1", got)
	}
	for _, s := range []frag.SiteID{"S2"} {
		if got := c.Metrics().Site(s).Visits; got != 0 {
			t.Errorf("%s visits = %d, want 0 — no other site may be touched", s, got)
		}
	}
}

// TestUpdateTrafficIndependentOfDataAndUpdateSize pins Section 5's cost
// claim: maintenance traffic does not grow with fragment size, nor with
// the number of updated nodes.
func TestUpdateTrafficIndependentOfDataAndUpdateSize(t *testing.T) {
	run := func(padding, opsN int) int64 {
		doc := fixtures.Portfolio()
		market := doc.Children[0].Children[1]
		for i := 0; i < padding; i++ {
			market.AppendChild(fixtures.Stock("PAD", "1", "2"))
		}
		forest := frag.NewForest(doc)
		if _, err := forest.Split(market); err != nil {
			t.Fatal(err)
		}
		c := cluster.New(cluster.DefaultCostModel())
		if _, err := core.Deploy(c, forest, frag.Assignment{0: "S0", 1: "S1"}); err != nil {
			t.Fatal(err)
		}
		st, err := frag.BuildSourceTree(forest, frag.Assignment{0: "S0", 1: "S1"})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range st.Sites() {
			site, _ := c.Site(id)
			RegisterHandlers(site, c)
		}
		ctx := context.Background()
		prog := xpath.MustCompileString(`//stock[code = "ZZZ"]`)
		v, err := Materialize(ctx, c, "S0", st, prog)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]UpdateOp, opsN)
		for i := range ops {
			ops[i] = UpdateOp{Op: OpInsert, Path: []int{0}, Label: "noise"}
		}
		mc, err := v.Update(ctx, 1, ops)
		if err != nil {
			t.Fatal(err)
		}
		return mc.Bytes - int64(opsSize(ops)) // exclude the request itself
	}
	// The response carries the fragment's node count as a uvarint, so a few
	// bytes of varint-width jitter are expected; anything beyond that would
	// mean the triplet scaled with the data.
	const tol = 4
	smallData := run(5, 1)
	bigData := run(2000, 1)
	if d := bigData - smallData; d > tol || d < -tol {
		t.Errorf("maintenance traffic grew with |T|: %d vs %d", smallData, bigData)
	}
	oneOp := run(50, 1)
	manyOps := run(50, 40)
	if d := manyOps - oneOp; d > tol || d < -tol {
		t.Errorf("response traffic grew with update size: %d vs %d", oneOp, manyOps)
	}
}

func opsSize(ops []UpdateOp) int {
	n := 0
	for _, op := range ops {
		n += len(xmltree.AppendOp(nil, op))
	}
	return n
}

func TestSplitKeepsAnswerAndState(t *testing.T) {
	c, forest, st := deploy(t)
	ctx := context.Background()
	prog := xpath.MustCompileString(`//stock[code = "YHOO"]`)
	v, err := Materialize(ctx, c, "S0", st, prog)
	if err != nil {
		t.Fatal(err)
	}
	before := v.Answer()

	// Split Bache's NYSE market out of F0 and assign it to a new site S3
	// (the Section 5 example ends with F4 assigned to a new site).
	s3 := c.AddSite("S3")
	core.RegisterHandlers(s3, c, c.Cost())
	RegisterHandlers(s3, c)
	f0, _ := forest.Fragment(0)
	nyse := f0.Root.FindAll("market")[0]
	newID, _, err := v.Split(ctx, 0, PathOf(nyse), "S3")
	if err != nil {
		t.Fatal(err)
	}
	if v.Answer() != before {
		t.Error("splitFragments changed the cached answer")
	}
	vst := v.SourceTree()
	e, ok := vst.Entry(newID)
	if !ok || e.Site != "S3" || e.Parent != 0 {
		t.Errorf("source tree entry for F%d = %+v", newID, e)
	}
	// The view must keep answering correctly after further updates that
	// touch the NEW fragment at its NEW site.
	site3, _ := c.Site("S3")
	fr, ok := site3.Fragment(newID)
	if !ok {
		t.Fatal("S3 did not adopt the new fragment")
	}
	ibmSell := fr.Root.FindAll("sell")[0]
	prog2 := v.Query()
	_ = prog2
	if _, err := v.Update(ctx, newID, []UpdateOp{{Op: OpSetText, Path: PathOf(ibmSell), Text: "999"}}); err != nil {
		t.Fatal(err)
	}
	// Oracle: the forest object no longer reflects S3's copy (the subtree
	// was shipped), so rebuild a fresh engine over the view's source tree.
	eng := core.NewEngine(c, "S0", v.SourceTree(), c.Cost())
	rep, err := eng.ParBoX(ctx, v.Query())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Answer != v.Answer() {
		t.Errorf("view answer %v diverged from fresh evaluation %v", v.Answer(), rep.Answer)
	}
}

func TestMergeRestoresFragmentCount(t *testing.T) {
	c, _, st := deploy(t)
	ctx := context.Background()
	prog := xpath.MustCompileString(`//stock[code = "YHOO"]`)
	v, err := Materialize(ctx, c, "S0", st, prog)
	if err != nil {
		t.Fatal(err)
	}
	before := v.Answer()
	// F2 lives at S2 while its parent F1 lives at S1: a remote merge.
	mc, err := v.Merge(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Answer() != before {
		t.Error("mergeFragments changed the cached answer")
	}
	if v.SourceTree().Count() != 3 {
		t.Errorf("source tree has %d fragments after merge, want 3", v.SourceTree().Count())
	}
	if len(mc.SitesVisited) != 2 {
		t.Errorf("remote merge visited %v, want the two involved sites", mc.SitesVisited)
	}
	// Fresh evaluation over the updated layout still agrees.
	eng := core.NewEngine(c, "S0", v.SourceTree(), c.Cost())
	rep, err := eng.ParBoX(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Answer != v.Answer() {
		t.Errorf("post-merge evaluation %v != view %v", rep.Answer, v.Answer())
	}
	// Merging a non-sub-fragment must fail.
	if _, err := v.Merge(ctx, 0, 2); err == nil {
		t.Error("merge of a non-child must fail")
	}
}

func TestUpdateErrors(t *testing.T) {
	c, _, st := deploy(t)
	ctx := context.Background()
	prog := xpath.MustCompileString(`//x`)
	v, err := Materialize(ctx, c, "S0", st, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Update(ctx, 99, nil); err == nil {
		t.Error("unknown fragment must fail")
	}
	if _, err := v.Update(ctx, 0, []UpdateOp{{Op: OpDelete, Path: nil}}); err == nil {
		t.Error("deleting the fragment root must fail")
	}
	if _, err := v.Update(ctx, 0, []UpdateOp{{Op: OpInsert, Path: []int{99}, Label: "x"}}); err == nil {
		t.Error("out-of-range path must fail")
	}
	// Deleting a subtree containing a virtual node must be refused.
	f0path := []int{0} // broker Merill Lynch, contains virtual F1
	if _, err := v.Update(ctx, 0, []UpdateOp{{Op: OpDelete, Path: f0path}}); err == nil {
		t.Error("deleting a subtree with virtual nodes must fail")
	}
}

// TestPropIncrementalMatchesRecompute: after arbitrary random update
// sequences, the incrementally maintained answer equals recomputation from
// scratch — for random documents, fragmentations and queries.
func TestPropIncrementalMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + r.Intn(50)})
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+r.Intn(5)); err != nil {
			return false
		}
		sites := []frag.SiteID{"S0", "S1", "S2"}
		assign := make(frag.Assignment)
		for _, id := range forest.IDs() {
			assign[id] = sites[r.Intn(len(sites))]
		}
		c := cluster.New(cluster.DefaultCostModel())
		if _, err := core.Deploy(c, forest, assign); err != nil {
			return false
		}
		st, err := frag.BuildSourceTree(forest, assign)
		if err != nil {
			return false
		}
		for _, id := range st.Sites() {
			site, _ := c.Site(id)
			RegisterHandlers(site, c)
		}
		ctx := context.Background()
		prog := xpath.Compile(xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true}))
		v, err := Materialize(ctx, c, "S0", st, prog)
		if err != nil {
			return false
		}
		// Apply 1..6 random updates, checking the invariant after each.
		for i := 0; i < 1+r.Intn(6); i++ {
			ids := forest.IDs()
			id := ids[r.Intn(len(ids))]
			fr, _ := forest.Fragment(id)
			var nodes []*xmltree.Node
			fr.Root.Walk(func(n *xmltree.Node) {
				if !n.Virtual {
					nodes = append(nodes, n)
				}
			})
			node := nodes[r.Intn(len(nodes))]
			var op UpdateOp
			switch r.Intn(3) {
			case 0:
				op = UpdateOp{Op: OpInsert, Path: PathOf(node), Label: "a", Text: "x"}
			case 1:
				op = UpdateOp{Op: OpSetText, Path: PathOf(node), Text: "y"}
			default:
				if node.Parent == nil || len(node.VirtualNodes()) > 0 {
					op = UpdateOp{Op: OpSetText, Path: PathOf(node), Text: "z"}
				} else {
					op = UpdateOp{Op: OpDelete, Path: PathOf(node)}
				}
			}
			if r.Intn(3) == 0 {
				// The same op in a batch that fails: undone, it must leave
				// no trace, the site's node count included.
				bad := UpdateOp{Op: OpInsert, Path: []int{len(fr.Root.Children) + 1}, Label: "x"}
				if _, err := v.Update(ctx, id, []UpdateOp{op, bad}); err == nil {
					t.Logf("a batch with an out-of-range op committed (seed %d)", seed)
					return false
				}
			}
			if _, err := v.Update(ctx, id, []UpdateOp{op}); err != nil {
				t.Logf("update: %v (seed %d)", err, seed)
				return false
			}
			if e, _ := v.SourceTree().Entry(id); e.Size != fr.Root.Size() {
				t.Logf("reported size %d, fragment has %d nodes (seed %d)", e.Size, fr.Root.Size(), seed)
				return false
			}
			want := oracleQuiet(forest, prog)
			if v.Answer() != want {
				t.Logf("incremental %v != recompute %v after op %+v (seed %d)", v.Answer(), want, op, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func oracleQuiet(forest *frag.Forest, prog *xpath.Program) bool {
	doc, err := forest.Assemble()
	if err != nil {
		return false
	}
	e, err := xpath.Parse(prog.Source)
	if err != nil {
		return false
	}
	return xpath.EvalRaw(e, doc)
}

func TestPathHelpers(t *testing.T) {
	doc := fixtures.Portfolio()
	code := doc.FindAll("code")[2]
	p := PathOf(code)
	got, err := NodeAt(doc, p)
	if err != nil || got != code {
		t.Errorf("NodeAt(PathOf(code)) = %v, %v", got, err)
	}
	if _, err := NodeAt(doc, []int{9, 9}); err == nil {
		t.Error("bad path must fail")
	}
	if p := PathOf(doc); len(p) != 0 {
		t.Errorf("PathOf(root) = %v, want empty", p)
	}
}
