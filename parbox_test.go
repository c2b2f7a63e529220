package parbox

import (
	"context"
	"maps"
	"strings"
	"testing"

	"repro/internal/fixtures"
)

func deployPortfolio(t testing.TB) (*System, *Node) {
	t.Helper()
	forest, orig, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S2"})
	if err != nil {
		t.Fatal(err)
	}
	return sys, orig
}

func TestQuickstartFlow(t *testing.T) {
	doc, err := ParseXMLString(`<a><b/><c>hi</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare(`//b && //c[text() = "hi"]`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer {
		t.Error("quickstart query should be true")
	}
	if res.Mode != ModeBoolean || res.Algorithm != AlgoParBoX {
		t.Errorf("default Exec ran %v/%v", res.Mode, res.Algorithm)
	}
	if res.Boolean == nil || res.Boolean.Answer != res.Answer {
		t.Error("Result.Boolean not filled")
	}
}

func TestExecAllAlgorithms(t *testing.T) {
	sys, orig := deployPortfolio(t)
	ctx := context.Background()
	for _, src := range []string{
		`//stock[code = "YHOO"]`,
		`//stock[code = "MSFT"]`,
		`//broker && //market`,
	} {
		q := MustPrepare(src)
		want, err := EvaluateLocal(orig, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algorithms() {
			res, err := sys.Exec(ctx, q, WithAlgorithm(algo))
			if err != nil {
				t.Errorf("%s(%q): %v", algo, src, err)
				continue
			}
			if res.Answer != want {
				t.Errorf("%s(%q) = %v, want %v", algo, src, res.Answer, want)
			}
			if res.Boolean == nil {
				t.Errorf("%s(%q): no boolean report", algo, src)
			}
		}
	}
}

func TestExecSelectAndCountModes(t *testing.T) {
	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	q := MustPrepare(`//stock`)

	sel, err := sys.Exec(ctx, q, WithMode(ModeSelect))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Selection == nil || sel.Matched == 0 || int64(sel.Selection.Count) != sel.Matched {
		t.Errorf("select result inconsistent: %+v", sel)
	}

	cnt, err := sys.Exec(ctx, q, WithMode(ModeCount))
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Counting == nil || cnt.Matched != sel.Matched {
		t.Errorf("count = %d, select found %d", cnt.Matched, sel.Matched)
	}
	if len(cnt.Visits) == 0 {
		t.Error("count mode reported no visits")
	}
	// Counting ships integers, not paths; it can never cost more.
	if cnt.Bytes > sel.Bytes {
		t.Errorf("count moved %d bytes > select's %d", cnt.Bytes, sel.Bytes)
	}

	// A Boolean query must be rejected by the selection modes.
	boolean := MustPrepare(`//a && //b`)
	if _, err := sys.Exec(ctx, boolean, WithMode(ModeSelect)); err == nil {
		t.Error("boolean query accepted in select mode")
	}
	// Selection modes run only under ParBoX.
	if _, err := sys.Exec(ctx, q, WithMode(ModeCount), WithAlgorithm(AlgoLazy)); err == nil {
		t.Error("count mode accepted a non-ParBoX algorithm")
	}
}

func TestExecBatch(t *testing.T) {
	sys, orig := deployPortfolio(t)
	ctx := context.Background()
	srcs := []string{
		`//stock[code = "YHOO"]`,
		`//stock[code = "MSFT"]`,
		`//market[name = "NYSE"]`,
	}
	queries := make([]*Prepared, len(srcs))
	for i, s := range srcs {
		queries[i] = MustPrepare(s)
	}
	res, err := sys.Exec(ctx, queries[0], WithBatch(queries[1:]...))
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch == nil || len(res.Answers) != len(queries) {
		t.Fatalf("batch result inconsistent: %+v", res)
	}
	for i, q := range queries {
		want, err := EvaluateLocal(orig, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers[i] != want {
			t.Errorf("batch[%d] = %v, want %v", i, res.Answers[i], want)
		}
	}
	if res.Answer != res.Answers[0] {
		t.Error("Result.Answer should echo the primary query")
	}
	if res.Visits["S1"] != 1 || res.Visits["S2"] != 1 {
		t.Errorf("batch visits = %v", res.Visits)
	}
	// A batch of one is still a batch: Result.Batch and Answers filled.
	solo, err := sys.Exec(ctx, queries[0], WithBatch())
	if err != nil {
		t.Fatal(err)
	}
	if solo.Batch == nil || len(solo.Answers) != 1 || solo.Answers[0] != res.Answers[0] {
		t.Errorf("solo batch = %+v", solo)
	}
	// Batches are a ParBoX-round feature.
	if _, err := sys.Exec(ctx, queries[0], WithBatch(queries[1]), WithAlgorithm(AlgoFullDist)); err == nil {
		t.Error("batch accepted a non-ParBoX algorithm")
	}
	if _, err := sys.Exec(ctx, queries[0], WithBatch(queries[1]), WithMode(ModeCount)); err == nil {
		t.Error("batch accepted a non-boolean mode")
	}
}

func TestExecMaterializeMode(t *testing.T) {
	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	q := MustPrepare(`//stock[code = "GOOG" && sell = "376"]`)
	res, err := sys.Exec(ctx, q, WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	view := res.View
	if view == nil {
		t.Fatal("no view returned")
	}
	// Materialization talks to every remote site; the unified accounting
	// must reflect that like any other mode.
	if res.Bytes == 0 || res.Visits["S1"] == 0 || res.Visits["S2"] == 0 {
		t.Errorf("materialize accounting empty: bytes=%d visits=%v", res.Bytes, res.Visits)
	}
	if view.Answer() || res.Answer {
		t.Fatal("initially false")
	}
	// F3 is Bache's NASDAQ market: market(name, stock(code,buy,sell), ...)
	// The GOOG sell node is child 1 (stock), child 2 (sell).
	if _, err := view.Update(ctx, 3, []UpdateOp{{Op: OpSetText, Path: []int{1, 2}, Text: "376"}}); err != nil {
		t.Fatal(err)
	}
	if !view.Answer() {
		t.Error("view did not flip after the price update")
	}
}

// TestMaterializeAccountingMatchesBoolean: materializing a view runs the
// same ParBoX round as a Boolean query, so on a cache-less deployment
// both modes must report the same traffic, visits, steps (the view's
// solve included) and modeled time (a parallel makespan, not a sum of
// the calls).
func TestMaterializeAccountingMatchesBoolean(t *testing.T) {
	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	q := MustPrepare(`//stock[sell = "376"]`)
	b, err := sys.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Exec(ctx, q, WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	if m.Answer != b.Answer {
		t.Errorf("answer materialize=%v boolean=%v", m.Answer, b.Answer)
	}
	if m.Bytes != b.Bytes || m.Messages != b.Messages || m.TotalSteps != b.TotalSteps || m.SimTime != b.SimTime {
		t.Errorf("materialize (bytes %d, msgs %d, steps %d, sim %v) != boolean (%d, %d, %d, %v)",
			m.Bytes, m.Messages, m.TotalSteps, m.SimTime, b.Bytes, b.Messages, b.TotalSteps, b.SimTime)
	}
	if !maps.Equal(m.Visits, b.Visits) {
		t.Errorf("visits materialize=%v boolean=%v", m.Visits, b.Visits)
	}
}

func TestExecInputErrors(t *testing.T) {
	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	if _, err := sys.Exec(ctx, nil); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := sys.Exec(ctx, MustPrepare(`//a`), WithAlgorithm(Algorithm(99))); err == nil {
		t.Error("invalid algorithm accepted")
	}
	if _, err := sys.Exec(ctx, MustPrepare(`//a`), WithMode(Mode(99))); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := sys.Exec(ctx, MustPrepare(`//a`), WithBatch(nil)); err == nil {
		t.Error("nil batch entry accepted")
	}
}

// TestExecModesAgree drives every Exec mode the former one-per-mode entry
// points covered — default, explicit algorithm, select, count, batch,
// materialize — over one deployment, each pinned to local evaluation.
func TestExecModesAgree(t *testing.T) {
	sys, orig := deployPortfolio(t)
	ctx := context.Background()
	q := MustPrepare(`//stock[code = "YHOO"]`)
	want, err := EvaluateLocal(orig, q)
	if err != nil {
		t.Fatal(err)
	}

	res, err := sys.Exec(ctx, q)
	if err != nil || res.Answer != want {
		t.Errorf("Exec = %+v, %v; want %v", res, err, want)
	}
	res, err = sys.Exec(ctx, q, WithAlgorithm(AlgoFullDist))
	if err != nil || res.Boolean.Answer != want || res.Boolean.Algorithm != AlgoFullDist {
		t.Errorf("Exec WithAlgorithm = %+v, %v", res, err)
	}
	stocks := MustPrepare(`//stock`)
	sel, err := sys.Exec(ctx, stocks, WithMode(ModeSelect))
	if err != nil || sel.Selection.Count == 0 {
		t.Errorf("ModeSelect = %+v, %v", sel, err)
	}
	cnt, err := sys.Exec(ctx, stocks, WithMode(ModeCount))
	if err != nil || cnt.Counting.Count != int64(sel.Selection.Count) {
		t.Errorf("ModeCount = %+v, %v", cnt, err)
	}
	batch, err := sys.Exec(ctx, q, WithBatch(MustPrepare(`//market`)))
	if err != nil || len(batch.Batch.Answers) != 2 || batch.Batch.Answers[0] != want {
		t.Errorf("WithBatch = %+v, %v", batch, err)
	}
	single, err := sys.Exec(ctx, q, WithBatch())
	if err != nil || len(single.Answers) != 1 || single.Answers[0] != want {
		t.Errorf("single-query batch = %+v, %v", single, err)
	}
	mat, err := sys.Exec(ctx, q, WithMode(ModeMaterialize))
	if err != nil || mat.View.Answer() != want {
		t.Errorf("ModeMaterialize answer = %+v, %v", mat, err)
	}
}

func TestMetricsSurface(t *testing.T) {
	sys, _ := deployPortfolio(t)
	sys.ResetMetrics()
	if _, err := sys.Exec(context.Background(), MustPrepare(`//stock`)); err != nil {
		t.Fatal(err)
	}
	if sys.TotalBytes() == 0 {
		t.Error("no traffic recorded")
	}
	if !strings.Contains(sys.MetricsTable(), "S2") {
		t.Error("metrics table missing S2")
	}
	if sys.Coordinator() != "S0" {
		t.Errorf("coordinator = %s, want S0", sys.Coordinator())
	}
	if sys.SourceTree().Count() != 4 {
		t.Errorf("source tree count = %d", sys.SourceTree().Count())
	}
}

func TestPrepareErrors(t *testing.T) {
	if _, err := Prepare(`a &&`); err == nil {
		t.Error("bad query accepted")
	}
	if err := ValidateQuery(`a &&`); err == nil {
		t.Error("ValidateQuery accepted a bad query")
	}
	if err := ValidateQuery(`//a`); err != nil {
		t.Errorf("ValidateQuery rejected a good query: %v", err)
	}
	if got := MustPrepare(`//a && //b`).QListSize(); got < 5 {
		t.Errorf("QListSize = %d", got)
	}
}

// TestEvaluateLocalRejectsFragment: the oracle never answers over a tree
// that still holds virtual nodes, even when the part it can see decides
// the query — EvalRaw would silently skip them.
func TestEvaluateLocalRejectsFragment(t *testing.T) {
	doc, err := ParseXMLString(`<a><b/><c>hi</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewForest(doc).Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{`//c`, `//b`} {
		if got, err := EvaluateLocal(doc, MustPrepare(src)); err == nil {
			t.Errorf("EvaluateLocal(%q) over the root fragment answered %v, want an error", src, got)
		}
	}
	if _, err := EvaluateLocal(nil, MustPrepare(`//c`)); err == nil {
		t.Error("EvaluateLocal(nil) answered")
	}
}

func TestAlgorithmParsing(t *testing.T) {
	if len(Algorithms()) != 6 {
		t.Fatalf("Algorithms() = %v", Algorithms())
	}
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("nosuch"); err == nil || !strings.Contains(err.Error(), "fulldist") {
		t.Errorf("unknown-algorithm error should list the valid set, got %v", err)
	}
}

func TestDeployErrors(t *testing.T) {
	doc := NewElement("r", "")
	forest := NewForest(doc)
	if _, err := Deploy(forest, Assignment{}); err == nil {
		t.Error("missing assignment must fail")
	}
}

// TestPreparedCachesCompiledForms pins the tentpole guarantee: repeated
// executions of one Prepared query reuse the same compiled artifacts —
// zero recompilation after the first use.
func TestPreparedCachesCompiledForms(t *testing.T) {
	q := MustPrepare(`//stock/code`)
	sp1, err := q.selectProgram()
	if err != nil {
		t.Fatal(err)
	}
	sp2, _ := q.selectProgram()
	if sp1 != sp2 {
		t.Error("selectProgram recompiled on second use")
	}
	if q.Optimized() != q.Optimized() {
		t.Error("Optimized recomputed on second use")
	}

	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sys.Exec(ctx, q, WithMode(ModeSelect)); err != nil {
			t.Fatal(err)
		}
	}
	sp3, _ := q.selectProgram()
	if sp3 != sp1 {
		t.Error("Exec recompiled the cached select automaton")
	}
	// Compiled forms are built on demand only: a query used exclusively
	// for selection never builds the Boolean program.
	selOnly := MustPrepare(`//stock`)
	if _, err := sys.Exec(ctx, selOnly, WithMode(ModeSelect)); err != nil {
		t.Fatal(err)
	}
	if selOnly.prog != nil {
		t.Error("select-only use compiled the unused boolean program")
	}
}

func TestQueryOptimized(t *testing.T) {
	q := MustPrepare(`. && (a || .)`)
	o := q.Optimized()
	if o.QListSize() > q.QListSize() {
		t.Errorf("Optimized grew: %d → %d", q.QListSize(), o.QListSize())
	}
	sys, orig := deployPortfolio(t)
	ctx := context.Background()
	for _, qq := range []*Prepared{MustPrepare(`//stock[code = "YHOO"] && .`), MustPrepare(`!(!( //market ))`)} {
		want, err := EvaluateLocal(orig, qq)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Exec(ctx, qq.Optimized())
		if err != nil {
			t.Fatal(err)
		}
		if res.Answer != want {
			t.Errorf("optimized %q = %v, want %v", qq, res.Answer, want)
		}
	}
}
