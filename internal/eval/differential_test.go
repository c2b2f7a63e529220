package eval

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/boolexpr"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The differential property tests of the evaluator: BottomUp, Solve and
// SolveAll must agree with xpath.EvalRaw, the AST interpreter that shares
// no code with Compile, the lane kernel or the arena, on random trees,
// random fragmentations and random QLists.

// twins clones tree and maps every node of tree to its copy, so that after
// tree is split each fragment root still names its node in the unsplit
// document.
func twins(tree *xmltree.Node) (*xmltree.Node, map[*xmltree.Node]*xmltree.Node) {
	orig := tree.Clone()
	var from, to []*xmltree.Node
	tree.Walk(func(n *xmltree.Node) { from = append(from, n) })
	orig.Walk(func(n *xmltree.Node) { to = append(to, n) })
	m := make(map[*xmltree.Node]*xmltree.Node, len(from))
	for i, n := range from {
		m[n] = to[i]
	}
	return orig, m
}

// oracleMismatch solves the forest's triplets with SolveAll and compares,
// at every fragment root, the resolved value of each query's root lane
// with EvalRaw of the query at that node of the unsplit document. It
// returns a description of the first disagreement, or "".
func oracleMismatch(forest *frag.Forest, triplets map[xmltree.FragmentID]Triplet, prog *xpath.Program,
	exprs []xpath.Expr, roots []int32, twin map[*xmltree.Node]*xmltree.Node) string {
	st, err := frag.BuildSourceTree(forest, frag.AssignAll(forest, "S0"))
	if err != nil {
		return err.Error()
	}
	vecs, _, err := SolveAll(st, triplets, prog)
	if err != nil {
		return "SolveAll: " + err.Error()
	}
	for _, id := range forest.IDs() {
		fr, _ := forest.Fragment(id)
		for i, e := range exprs {
			if got, want := vecs[id].V[roots[i]], xpath.EvalRaw(e, twin[fr.Root]); got != want {
				return fmt.Sprintf("fragment %d, query %q: solved %v, EvalRaw %v", id, e.String(), got, want)
			}
		}
	}
	return ""
}

// wantSteps is the paper's O(|Q|·|T|) as an exact count: one step per
// subquery at every real node and at every virtual child of the fragment.
func wantSteps(root *xmltree.Node, prog *xpath.Program) int64 {
	var real, virtual int64
	root.Walk(func(n *xmltree.Node) {
		if n.Virtual {
			virtual++
		} else {
			real++
		}
	})
	return int64(len(prog.Subs)) * (real + virtual)
}

// TestPropBottomUpMatchesOracle: on every fragment of a random
// fragmentation, BottomUp takes exactly |QList| steps per node and virtual
// child, and its triplets, once solved, give at every fragment root the
// answer EvalRaw gives at that node of the unsplit tree.
func TestPropBottomUpMatchesOracle(t *testing.T) {
	f := func(seed int64, sizeRaw, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(sizeRaw%80)})
		_, twin := twins(tree)
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%10)); err != nil {
			return false
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)
		triplets := make(map[xmltree.FragmentID]Triplet, forest.Count())
		for _, id := range forest.IDs() {
			fr, _ := forest.Fragment(id)
			tr, steps, err := BottomUp(fr.Root, prog)
			if err != nil {
				t.Logf("BottomUp(F%d): %v", id, err)
				return false
			}
			if want := wantSteps(fr.Root, prog); steps != want {
				t.Logf("F%d steps: %d, want %d (query %q)", id, steps, want, q.String())
				return false
			}
			triplets[id] = tr
		}
		if msg := oracleMismatch(forest, triplets, prog, []xpath.Expr{q}, []int32{int32(prog.Root())}, twin); msg != "" {
			t.Logf("%s (seed %d)", msg, seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropSolveMatchesOracle: the full pipeline — BottomUp per fragment,
// Solve over a random site assignment — answers what EvalRaw answers on the
// unfragmented tree, and so does Solve over the same triplets re-decoded
// into one shared arena.
func TestPropSolveMatchesOracle(t *testing.T) {
	f := func(seed int64, sizeRaw, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(sizeRaw%80)})
		orig := tree.Clone()
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+int(splitRaw%12)); err != nil {
			return false
		}
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
		want := xpath.EvalRaw(q, orig)
		got, _, err := Solve(st, triplets, prog)
		if err != nil || got != want {
			t.Logf("query %q: Solve = %v/%v, EvalRaw %v (seed %d)", q.String(), got, err, want, seed)
			return false
		}
		shared := boolexpr.NewArena()
		decoded := make(map[xmltree.FragmentID]Triplet, len(triplets))
		for id, tr := range triplets {
			if decoded[id], err = DecodeTripletInto(shared, tr.Encode()); err != nil {
				return false
			}
		}
		if got, _, err := Solve(st, decoded, prog); err != nil || got != want {
			t.Logf("query %q: Solve over one shared arena = %v/%v, want %v", q.String(), got, err, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestPropTripletWireCompat: a triplet encoded from the evaluator decodes
// to a structurally equal triplet — into a fresh arena and into a shared
// one alike — and re-encodes to the same bytes: decode → encode is the
// identity on everything a site ships.
func TestPropTripletWireCompat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 40})
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 5); err != nil {
			return false
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)
		shared := boolexpr.NewArena()
		for _, id := range forest.IDs() {
			fr, _ := forest.Fragment(id)
			tr, _, err := BottomUp(fr.Root, prog)
			if err != nil {
				return false
			}
			enc := tr.Encode()
			if len(enc) != tr.EncodedSize() {
				t.Logf("EncodedSize %d != len %d", tr.EncodedSize(), len(enc))
				return false
			}
			own, err := DecodeTriplet(enc)
			if err != nil || !own.Equal(tr) {
				return false
			}
			at, err := DecodeTripletInto(shared, enc)
			if err != nil {
				return false
			}
			if !bytes.Equal(at.Encode(), enc) || !at.Equal(tr) {
				t.Logf("shared-arena decode diverges (seed %d)", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
