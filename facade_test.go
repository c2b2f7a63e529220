package parbox

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestCostModelOption(t *testing.T) {
	doc := NewElement("r", "", NewElement("a", ""))
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	slow := CostModel{
		Latency:        5 * time.Millisecond,
		BytesPerSecond: 1e3,
		StepsPerSecond: 1e3,
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1"}, WithCostModel(slow))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Exec(context.Background(), MustPrepare(`//a`))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer {
		t.Error("expected true")
	}
	// At 1 kB/s and 5 ms latency even the tiny exchange models ≥ 10 ms.
	if res.SimTime < 10*time.Millisecond {
		t.Errorf("custom cost model ignored: SimTime = %v", res.SimTime)
	}
	d := DefaultCostModel()
	if d.StepsPerSecond <= 0 || d.BytesPerSecond <= 0 {
		t.Error("default cost model not populated")
	}
}

func TestWriteXMLAndPathOf(t *testing.T) {
	doc, err := ParseXMLString(`<a><b><c>x</c></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteXML(&sb, doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<c>x</c>") {
		t.Errorf("WriteXML output: %q", sb.String())
	}
	c := doc.FindFirst("c")
	p := PathOf(c)
	if len(p) != 2 || p[0] != 0 || p[1] != 0 {
		t.Errorf("PathOf(c) = %v", p)
	}
}

func TestBuildSourceTreeFacade(t *testing.T) {
	doc := NewElement("r", "", NewElement("a", ""))
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	st, err := BuildSourceTree(forest, Assignment{0: "X", 1: "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Count() != 2 {
		t.Errorf("count = %d", st.Count())
	}
	if _, err := BuildSourceTree(forest, Assignment{0: "X"}); err == nil {
		t.Error("partial assignment accepted")
	}
}

func TestAddSiteEnablesSplitTarget(t *testing.T) {
	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	viewRes, err := sys.Exec(ctx, MustPrepare(`//stock`), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	view := viewRes.View
	sys.AddSite("fresh")
	// F0's first market subtree is at path [1 1] (broker Bache, market).
	newID, _, err := view.Split(ctx, 0, []int{1, 1}, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := view.v.SourceTree().Entry(newID)
	if !ok || e.Site != "fresh" {
		t.Errorf("split target entry = %+v, %v", e, ok)
	}
	if !view.Answer() {
		t.Error("answer changed")
	}
}

func TestSelectAndCountFacadeErrors(t *testing.T) {
	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	if _, err := sys.Exec(ctx, MustPrepare(`//a && //b`), WithMode(ModeSelect)); err == nil {
		t.Error("boolean query accepted as selection")
	}
	if _, err := Prepare(`bad[`); err == nil {
		t.Error("bad query accepted by Prepare")
	}
}

func TestExecTimeoutOption(t *testing.T) {
	sys, _ := deployPortfolio(t)
	// An already-expired timeout must cancel the run before any site call,
	// including the zero/negative durations a budget-computing caller
	// produces past its deadline.
	for _, d := range []time.Duration{time.Nanosecond, 0, -time.Second} {
		if _, err := sys.Exec(context.Background(), MustPrepare(`//stock`), WithTimeout(d)); err == nil {
			t.Errorf("expired timeout %v did not fail the call", d)
		}
	}
	// A generous timeout must not interfere.
	res, err := sys.Exec(context.Background(), MustPrepare(`//stock`), WithTimeout(time.Minute))
	if err != nil || !res.Answer {
		t.Errorf("Exec with timeout = %+v, %v", res, err)
	}
}

func TestExecTraceOption(t *testing.T) {
	sys, _ := deployPortfolio(t)
	var sb strings.Builder
	res, err := sys.Exec(context.Background(), MustPrepare(`//stock`), WithTrace(&sb))
	if err != nil || !res.Answer {
		t.Fatalf("Exec with trace = %+v, %v", res, err)
	}
	out := sb.String()
	if !strings.Contains(out, "parbox.evalQual") || !strings.Contains(out, "S1") {
		t.Errorf("trace missing expected calls:\n%s", out)
	}
	// The trace is per-call: an untraced Exec must not extend it.
	if _, err := sys.Exec(context.Background(), MustPrepare(`//stock`)); err != nil {
		t.Fatal(err)
	}
	if sb.String() != out {
		t.Error("untraced Exec appended to an earlier call's trace")
	}
}

func TestExecTraceReleasesView(t *testing.T) {
	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	var sb strings.Builder
	res, err := sys.Exec(ctx, MustPrepare(`//stock[sell = "376"]`),
		WithMode(ModeMaterialize), WithTrace(&sb))
	if err != nil {
		t.Fatal(err)
	}
	traced := sb.String()
	if traced == "" {
		t.Error("materialize run produced no trace")
	}
	// The view outlives the run on the durable transport: maintenance
	// must not extend the finished run's trace.
	if _, err := res.View.Update(ctx, 3, []UpdateOp{{Op: OpSetText, Path: []int{1, 2}, Text: "376"}}); err != nil {
		t.Fatal(err)
	}
	if sb.String() != traced {
		t.Error("view maintenance appended to the materialize run's trace")
	}
	if !res.View.Answer() {
		t.Error("view did not maintain after the transport handoff")
	}
}
