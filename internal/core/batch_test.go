package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestBatchMatchesIndividual(t *testing.T) {
	_, eng, orig := deployFig2(t)
	ctx := context.Background()
	exprs := make([]xpath.Expr, len(fig2Queries))
	for i, src := range fig2Queries {
		e, err := xpath.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		exprs[i] = e
	}
	prog, roots := xpath.CompileBatch(exprs)
	rep, err := eng.ParBoXBatch(ctx, prog, roots)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Answers) != len(exprs) {
		t.Fatalf("%d answers for %d queries", len(rep.Answers), len(exprs))
	}
	for i, e := range exprs {
		want := xpath.EvalRaw(e, orig)
		if rep.Answers[i] != want {
			t.Errorf("batch answer %d (%s) = %v, want %v", i, e, rep.Answers[i], want)
		}
	}
	// One visit per remote site, for the WHOLE batch.
	if rep.Visits["S1"] != 1 || rep.Visits["S2"] != 1 {
		t.Errorf("batch visits = %v, want one per site", rep.Visits)
	}
}

// TestBatchSharingSavesWork: the shared program of overlapping queries is
// smaller than the sum of the individual programs, so one batch round
// performs fewer steps than the individual rounds combined.
func TestBatchSharingSavesWork(t *testing.T) {
	_, eng, _ := deployFig2(t)
	ctx := context.Background()
	srcs := []string{
		`//stock[code = "GOOG"]`,
		`//stock[code = "GOOG"] && //market[name = "NYSE"]`,
		`//stock[code = "GOOG"] || //stock[code = "YHOO"]`,
	}
	exprs := make([]xpath.Expr, len(srcs))
	sumSizes := 0
	for i, src := range srcs {
		exprs[i] = xpath.MustParse(src)
		sumSizes += xpath.Compile(exprs[i]).QListSize()
	}
	prog, roots := xpath.CompileBatch(exprs)
	if prog.QListSize() >= sumSizes {
		t.Errorf("shared program has %d entries, individual sum %d — no sharing?", prog.QListSize(), sumSizes)
	}
	rep, err := eng.ParBoXBatch(ctx, prog, roots)
	if err != nil {
		t.Fatal(err)
	}
	var individual int64
	for _, e := range exprs {
		r, err := eng.ParBoX(ctx, xpath.Compile(e))
		if err != nil {
			t.Fatal(err)
		}
		individual += r.TotalSteps
	}
	if rep.TotalSteps >= individual {
		t.Errorf("batch steps %d not below individual total %d", rep.TotalSteps, individual)
	}
}

// TestPropBatchAgreesWithCentralized: random batches over random
// fragmented documents.
func TestPropBatchAgreesWithCentralized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + r.Intn(50)})
		orig := tree.Clone()
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+r.Intn(6)); err != nil {
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
		n := 1 + r.Intn(6)
		exprs := make([]xpath.Expr, n)
		for i := range exprs {
			exprs[i] = xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		}
		prog, roots := xpath.CompileBatch(exprs)
		if prog.Validate() != nil {
			return false
		}
		rep, err := eng.ParBoXBatch(context.Background(), prog, roots)
		if err != nil {
			t.Logf("batch: %v (seed %d)", err, seed)
			return false
		}
		for i, e := range exprs {
			want := xpath.EvalRaw(e, orig)
			if rep.Answers[i] != want {
				t.Logf("batch[%d] (%q) = %v, want %v (seed %d)", i, e.String(), rep.Answers[i], want, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestBatchIdenticalQueriesShareEverything(t *testing.T) {
	e := xpath.MustParse(`//stock[code = "GOOG"]`)
	prog, roots := xpath.CompileBatch([]xpath.Expr{e, e, e})
	if roots[0] != roots[1] || roots[1] != roots[2] {
		t.Errorf("identical queries got distinct roots: %v", roots)
	}
	single := xpath.Compile(e)
	if prog.QListSize() != single.QListSize() {
		t.Errorf("batch of identical queries has %d entries, single has %d",
			prog.QListSize(), single.QListSize())
	}
}

func TestBatchEmptyAndBadRoots(t *testing.T) {
	_, eng, _ := deployFig2(t)
	ctx := context.Background()
	prog, roots := xpath.CompileBatch(nil)
	rep, err := eng.ParBoXBatch(ctx, prog, roots)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if len(rep.Answers) != 0 {
		t.Errorf("empty batch returned answers: %v", rep.Answers)
	}
	if _, err := eng.ParBoXBatch(ctx, prog, []int32{99}); err == nil {
		t.Error("out-of-range root accepted")
	}
}
