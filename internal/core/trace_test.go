package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/xpath"
)

// hop is one remote call as the span tree records it: a "call <kind>"
// span at the callee, whose caller is the site of the enclosing handler
// span (the coordinator when there is none).
type hop struct {
	from, to frag.SiteID
	kind     string
}

// tracedRun runs algo traced and returns the collected spans and the
// remote calls they record, in span order.
func tracedRun(t *testing.T, eng *Engine, algo Algorithm, src string) ([]obs.Span, []hop) {
	t.Helper()
	col := obs.NewCollector()
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Collector: col})
	if _, err := eng.Run(ctx, algo, xpath.MustCompileString(src)); err != nil {
		t.Fatal(err)
	}
	spans := col.Spans()
	byID := make(map[uint64]obs.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var hops []hop
	for _, sp := range spans {
		kind, ok := strings.CutPrefix(sp.Name, "call ")
		if !ok {
			continue
		}
		from := eng.Coordinator()
		if p, ok := byID[sp.Parent]; ok {
			from = frag.SiteID(p.Site)
		}
		hops = append(hops, hop{from: from, to: frag.SiteID(sp.Site), kind: kind})
	}
	return spans, hops
}

// TestTraceParBoXMessageFlow pins the protocol shape of ParBoX: exactly
// one evalQual request per remote site and nothing else.
func TestTraceParBoXMessageFlow(t *testing.T) {
	_, eng, _ := deployFig2(t)
	_, hops := tracedRun(t, eng, AlgoParBoX, `//stock[code = "YHOO"]`)
	if len(hops) != 2 {
		t.Fatalf("ParBoX produced %d remote calls, want 2: %v", len(hops), hops)
	}
	targets := map[frag.SiteID]bool{}
	for _, h := range hops {
		if h.kind != KindEvalQual {
			t.Errorf("unexpected message kind %s", h.kind)
		}
		if h.from != "S0" {
			t.Errorf("message from %s, want the coordinator", h.from)
		}
		targets[h.to] = true
	}
	if !targets["S1"] || !targets["S2"] {
		t.Errorf("targets = %v, want S1 and S2", targets)
	}
}

// TestTraceFullDistMessageFlow pins FullDist: one evalQualKeep per remote
// site, then resolve hops following the source tree (S0→S1 for F1, S1→S2
// for F2, S0→S2 for F3) — and no cleanup messages on the happy path.
func TestTraceFullDistMessageFlow(t *testing.T) {
	_, eng, _ := deployFig2(t)
	_, hops := tracedRun(t, eng, AlgoFullDist, `//stock[code = "YHOO"]`)
	counts := map[string]int{}
	found := false
	for _, h := range hops {
		counts[h.kind]++
		if h.kind == KindResolve && h.from == "S1" && h.to == "S2" {
			found = true
		}
	}
	if counts[KindEvalQualKeep] != 2 {
		t.Errorf("evalQualKeep count = %d, want 2", counts[KindEvalQualKeep])
	}
	if counts[KindResolve] != 3 {
		t.Errorf("resolve count = %d, want 3 (F1, F2, F3)", counts[KindResolve])
	}
	if counts[KindCleanup] != 0 {
		t.Errorf("cleanup count = %d, want 0 on the happy path", counts[KindCleanup])
	}
	// The S1→S2 hop (resolving F2 from F1's site) must appear.
	if !found {
		t.Errorf("missing S1→S2 resolve hop: %v", hops)
	}
}

// TestTracerRendering: the rendered tree names every remote call with
// its callee and the bytes it moved, and the byte attributes add up to
// the run's reported traffic.
func TestTracerRendering(t *testing.T) {
	_, eng, _ := deployFig2(t)
	spans, _ := tracedRun(t, eng, AlgoParBoX, `//broker`)
	var b strings.Builder
	obs.RenderTrace(&b, obs.TraceRecord{Root: "test", Spans: spans})
	if s := b.String(); !strings.Contains(s, "call "+KindEvalQual+" @S1") || !strings.Contains(s, "req_bytes=") {
		t.Errorf("trace rendering:\n%s", s)
	}
	var traffic int64
	for _, sp := range spans {
		req, _ := sp.Attr("req_bytes")
		resp, _ := sp.Attr("resp_bytes")
		traffic += req + resp
	}
	rep, err := eng.ParBoX(context.Background(), xpath.MustCompileString(`//broker`))
	if err != nil {
		t.Fatal(err)
	}
	if traffic != rep.Bytes {
		t.Errorf("span byte attributes sum to %d, report says %d", traffic, rep.Bytes)
	}
}
