// Package integration soak-tests the whole stack: random documents and
// fragmentations, interleaved queries (all algorithms), selections,
// counts, batches, content updates and re-fragmentations — with every
// step checked against a centralized oracle rebuilt from the live
// cluster state.
package integration

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/views"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// world is one live deployment under test.
type world struct {
	t      *testing.T
	r      *rand.Rand
	c      *cluster.Cluster
	view   *views.View
	engine func() *core.Engine // rebuilt from the view's current source tree
}

// oracle reassembles the document from the sites' live fragments and
// evaluates centrally.
func (w *world) oracle() *xmltree.Node {
	st := w.view.SourceTree()
	var frs []*frag.Fragment
	for _, id := range st.Fragments() {
		e, _ := st.Entry(id)
		site, ok := w.c.Site(e.Site)
		if !ok {
			w.t.Fatalf("missing site %s", e.Site)
		}
		fr, ok := site.Fragment(id)
		if !ok {
			w.t.Fatalf("site %s missing fragment %d", e.Site, id)
		}
		frs = append(frs, &frag.Fragment{ID: fr.ID, Parent: e.Parent, Root: fr.Root.Clone()})
	}
	forest, err := frag.FromFragments(frs, st.Root())
	if err != nil {
		w.t.Fatalf("oracle reassembly: %v", err)
	}
	doc, err := forest.Assemble()
	if err != nil {
		w.t.Fatal(err)
	}
	return doc
}

func (w *world) randomQuery() xpath.Expr {
	return xpath.RandomQuery(w.r, xpath.RandomSpec{AllowNot: true})
}

func (w *world) randomNodeIn(id xmltree.FragmentID) (*xmltree.Node, *xmltree.Node) {
	st := w.view.SourceTree()
	e, _ := st.Entry(id)
	site, _ := w.c.Site(e.Site)
	fr, ok := site.Fragment(id)
	if !ok {
		w.t.Fatalf("site %s missing fragment %d", e.Site, id)
	}
	var nodes []*xmltree.Node
	fr.Root.Walk(func(n *xmltree.Node) {
		if !n.Virtual {
			nodes = append(nodes, n)
		}
	})
	return fr.Root, nodes[w.r.Intn(len(nodes))]
}

func TestSoak(t *testing.T) {
	// VLDB'06 opened Sept 12, 2006 — plus a few neighbours for variety.
	for _, seed := range []int64{20060912, 20060913, 20060914, 20060915} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			soak(t, seed)
		})
	}
}

func soak(t *testing.T, seed int64) {
	const rounds = 40
	r := rand.New(rand.NewSource(seed))
	ctx := context.Background()

	// Build and deploy.
	tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 120, MaxChildren: 5})
	forest := frag.NewForest(tree)
	if err := forest.SplitRandom(r, 5); err != nil {
		t.Fatal(err)
	}
	sites := []frag.SiteID{"S0", "S1", "S2", "S3"}
	assign := make(frag.Assignment)
	for _, id := range forest.IDs() {
		assign[id] = sites[r.Intn(len(sites))]
	}
	assign[forest.RootID()] = "S0"
	c := cluster.New(cluster.DefaultCostModel())
	eng, err := core.Deploy(c, forest, assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		site := c.AddSite(s)
		core.RegisterHandlers(site, c, c.Cost())
		views.RegisterHandlers(site, c)
	}
	// A standing view drives the update machinery and carries the
	// authoritative source tree across re-fragmentations.
	viewQuery := xpath.MustCompileString(`//a[b] || //c`)
	v, err := views.Materialize(ctx, c, "S0", eng.SourceTree(), viewQuery)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, r: r, c: c, view: v}
	w.engine = func() *core.Engine {
		return core.NewEngine(c, "S0", v.SourceTree(), c.Cost())
	}

	algos := core.Algorithms()
	for round := 0; round < rounds; round++ {
		action := r.Intn(10)
		st := v.SourceTree()
		ids := st.Fragments()
		id := ids[r.Intn(len(ids))]
		switch {
		case action < 4: // Boolean query, random algorithm
			q := w.randomQuery()
			prog := xpath.Compile(q)
			algo := algos[r.Intn(len(algos))]
			rep, err := w.engine().Run(ctx, algo, prog)
			if err != nil {
				t.Fatalf("round %d: %s(%q): %v", round, algo, q.String(), err)
			}
			want, _, err := eval.Evaluate(w.oracle(), prog)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Answer != want {
				t.Fatalf("round %d: %s(%q) = %v, want %v", round, algo, q.String(), rep.Answer, want)
			}
		case action < 5: // selection + count agree
			var e xpath.Expr
			for {
				e = w.randomQuery()
				if _, ok := e.(*xpath.Path); ok {
					break
				}
			}
			sp, err := xpath.CompileSelect(e)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := w.engine().SelectParBoX(ctx, sp)
			if err != nil {
				t.Fatalf("round %d: select(%q): %v", round, e.String(), err)
			}
			cnt, err := w.engine().CountParBoX(ctx, sp)
			if err != nil {
				t.Fatal(err)
			}
			if int64(sel.Count) != cnt.Count {
				t.Fatalf("round %d: select %d != count %d for %q", round, sel.Count, cnt.Count, e.String())
			}
			want, err := xpath.SelectRaw(e, w.oracle())
			if err != nil {
				t.Fatal(err)
			}
			if sel.Count != int64(len(want)) {
				t.Fatalf("round %d: select(%q) = %d nodes, want %d", round, e.String(), sel.Count, len(want))
			}
		case action < 6: // batch of queries
			n := 1 + r.Intn(4)
			exprs := make([]xpath.Expr, n)
			for i := range exprs {
				exprs[i] = w.randomQuery()
			}
			prog, roots := xpath.CompileBatch(exprs)
			rep, err := w.engine().ParBoXBatch(ctx, prog, roots)
			if err != nil {
				t.Fatalf("round %d: batch: %v", round, err)
			}
			doc := w.oracle()
			for i, e := range exprs {
				want, _, err := eval.Evaluate(doc, xpath.Compile(e))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Answers[i] != want {
					t.Fatalf("round %d: batch[%d] (%q) = %v, want %v", round, i, e.String(), rep.Answers[i], want)
				}
			}
		case action < 9: // content update through the view
			root, node := w.randomNodeIn(id)
			var op views.UpdateOp
			switch r.Intn(3) {
			case 0:
				op = views.UpdateOp{Op: views.OpInsert, Path: views.PathOf(node), Label: "a", Text: "x"}
			case 1:
				op = views.UpdateOp{Op: views.OpSetText, Path: views.PathOf(node), Text: fmt.Sprintf("t%d", round)}
			default:
				if node == root || len(node.VirtualNodes()) > 0 {
					op = views.UpdateOp{Op: views.OpSetText, Path: views.PathOf(node), Text: "y"}
				} else {
					op = views.UpdateOp{Op: views.OpDelete, Path: views.PathOf(node)}
				}
			}
			if _, err := v.Update(ctx, id, []views.UpdateOp{op}); err != nil {
				t.Fatalf("round %d: update: %v", round, err)
			}
			want, _, err := eval.Evaluate(w.oracle(), viewQuery)
			if err != nil {
				t.Fatal(err)
			}
			if v.Answer() != want {
				t.Fatalf("round %d: view %v, oracle %v", round, v.Answer(), want)
			}
		default: // re-fragmentation: split a random non-root node
			root, node := w.randomNodeIn(id)
			if node == root {
				continue
			}
			target := sites[r.Intn(len(sites))]
			if _, _, err := v.Split(ctx, id, views.PathOf(node), target); err != nil {
				t.Fatalf("round %d: split: %v", round, err)
			}
			want, _, err := eval.Evaluate(w.oracle(), viewQuery)
			if err != nil {
				t.Fatal(err)
			}
			if v.Answer() != want {
				t.Fatalf("round %d: view %v after split, oracle %v", round, v.Answer(), want)
			}
		}
	}

	// Finally, merge everything back into fewer fragments and verify once
	// more (bottom-up merges only).
	for {
		st := v.SourceTree()
		var mergeable []xmltree.FragmentID
		for _, id := range st.Fragments() {
			e, _ := st.Entry(id)
			if id != st.Root() && len(e.Children) == 0 {
				mergeable = append(mergeable, id)
			}
		}
		if len(mergeable) == 0 || st.Count() <= 2 {
			break
		}
		id := mergeable[r.Intn(len(mergeable))]
		e, _ := st.Entry(id)
		if _, err := v.Merge(ctx, e.Parent, id); err != nil {
			t.Fatalf("final merge of %d into %d: %v", id, e.Parent, err)
		}
	}
	want, _, err := eval.Evaluate(w.oracle(), viewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if v.Answer() != want {
		t.Fatalf("after merges: view %v, oracle %v", v.Answer(), want)
	}
}
