package parbox

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fixtures"
	"repro/internal/obs"
)

// checkSpanTree verifies structural integrity of a collected span set:
// one trace ID throughout, exactly one root (Parent not among the set's
// IDs is allowed only for the root), and every other span reachable
// from it through parent links.
func checkSpanTree(t *testing.T, spans []obs.Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	ids := make(map[uint64]obs.Span, len(spans))
	for _, sp := range spans {
		if sp.TraceID != spans[0].TraceID {
			t.Fatalf("span %q has trace %x, want %x", sp.Name, sp.TraceID, spans[0].TraceID)
		}
		if sp.ID == 0 {
			t.Fatalf("span %q has a zero ID", sp.Name)
		}
		if _, dup := ids[sp.ID]; dup {
			t.Fatalf("duplicate span ID %x (%q)", sp.ID, sp.Name)
		}
		ids[sp.ID] = sp
	}
	roots := 0
	for _, sp := range spans {
		if _, ok := ids[sp.Parent]; !ok {
			roots++
			continue
		}
		// Walk up: must terminate at a root, not cycle.
		seen := map[uint64]bool{sp.ID: true}
		cur := sp
		for {
			p, ok := ids[cur.Parent]
			if !ok {
				break
			}
			if seen[p.ID] {
				t.Fatalf("parent cycle at span %q", p.Name)
			}
			seen[p.ID] = true
			cur = p
		}
	}
	if roots != 1 {
		t.Errorf("span set has %d roots, want exactly 1", roots)
	}
}

func spanNames(spans []obs.Span) map[string]int {
	names := make(map[string]int)
	for _, sp := range spans {
		names[sp.Name]++
	}
	return names
}

// TestWithSpansSolo: a plain Exec with WithSpans yields a connected
// span tree rooted at the exec span, with per-site handler and
// bottomUp spans for every remote visit, and no text output anywhere.
func TestWithSpansSolo(t *testing.T) {
	sys, _ := deployPortfolio(t)
	q, err := Prepare(`//stock[price]`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Exec(context.Background(), q, WithSpans())
	if err != nil {
		t.Fatal(err)
	}
	checkSpanTree(t, res.Spans)
	names := spanNames(res.Spans)
	if names["exec boolean"] != 1 {
		t.Errorf("want exactly one root exec span, got %v", names)
	}
	if names["handle parbox.evalQual"] == 0 || names["bottomUp"] == 0 {
		t.Errorf("missing site-side spans: %v", names)
	}
	// Every remotely visited site must appear as a span site.
	siteSeen := make(map[SiteID]bool)
	for _, sp := range res.Spans {
		siteSeen[SiteID(sp.Site)] = true
	}
	for site, v := range res.Visits {
		if v > 0 && !siteSeen[site] {
			t.Errorf("site %s was visited %d times but recorded no span", site, v)
		}
	}

	// Without WithSpans, collection stays off.
	res2, err := sys.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Spans != nil {
		t.Errorf("untraced call collected %d spans", len(res2.Spans))
	}
}

// TestWithTraceRendersSpans: WithTrace renders the span tree, every
// remote call in it.
func TestWithTraceRendersSpans(t *testing.T) {
	sys, _ := deployPortfolio(t)
	q, err := Prepare(`//stock[price]`)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	res, err := sys.Exec(context.Background(), q, WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkSpanTree(t, res.Spans)
	out := buf.String()
	if !strings.Contains(out, "parbox.evalQual") {
		t.Errorf("trace output lost the message log:\n%s", out)
	}
	if !strings.Contains(out, "trace ") || !strings.Contains(out, "exec boolean") {
		t.Errorf("trace output lacks the span tree:\n%s", out)
	}
}

// TestWithTraceShowsSiteToSiteHops: under AlgoFullDist the in-process
// trace shows the recursion's site-to-site resolve hops (S1 resolving F2
// at S2) as call spans labelled with the bytes each moved.
func TestWithTraceShowsSiteToSiteHops(t *testing.T) {
	sys, _ := deployPortfolio(t)
	var buf strings.Builder
	res, err := sys.Exec(context.Background(), MustPrepare(`//stock[code = "YHOO"]`),
		WithAlgorithm(AlgoFullDist), WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkSpanTree(t, res.Spans)
	site := make(map[uint64]string, len(res.Spans))
	for _, sp := range res.Spans {
		site[sp.ID] = sp.Site
	}
	hop := false
	for _, sp := range res.Spans {
		if sp.Name == "call parbox.resolve" && sp.Site == "S2" && site[sp.Parent] == "S1" {
			_, req := sp.Attr("req_bytes")
			_, resp := sp.Attr("resp_bytes")
			hop = req && resp
		}
	}
	if !hop {
		t.Errorf("no S1→S2 resolve hop with byte attributes among the spans")
	}
	out := buf.String()
	if !strings.Contains(out, "call parbox.resolve @S2") || !strings.Contains(out, "req_bytes=") || !strings.Contains(out, "resp_bytes=") {
		t.Errorf("rendered trace lacks the resolve hops and their bytes:\n%s", out)
	}
}

// TestTracedCoalescedMatchesUntraced is the satellite regression for
// lifting the WithTrace×WithCoalescing restriction: a traced coalesced
// call must return exactly the answers and accounting of an untraced
// one, carry the round's span tree with a lane span attributed, and
// render a tree into the trace writer.
func TestTracedCoalescedMatchesUntraced(t *testing.T) {
	sys, _ := deployPortfolio(t)
	ctx := context.Background()
	for _, src := range []string{
		`//stock[price]`,
		`//stock[code = "A"] && //fund`,
		`//bond || //stock`,
	} {
		q, err := Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sys.Exec(ctx, q, WithCoalescing())
		if err != nil {
			t.Fatalf("%q untraced: %v", src, err)
		}
		var buf strings.Builder
		traced, err := sys.Exec(ctx, q, WithCoalescing(), WithTrace(&buf), WithSpans())
		if err != nil {
			t.Fatalf("%q traced: %v", src, err)
		}
		if plain.Sched == nil || traced.Sched == nil {
			t.Fatalf("%q: a call bypassed the scheduler (plain %v, traced %v)", src, plain.Sched, traced.Sched)
		}
		if traced.Answer != plain.Answer {
			t.Errorf("%q: answer traced=%v untraced=%v", src, traced.Answer, plain.Answer)
		}
		if traced.Bytes != plain.Bytes || traced.Messages != plain.Messages ||
			traced.TotalSteps != plain.TotalSteps {
			t.Errorf("%q: accounting traced (bytes %d, msgs %d, steps %d) != untraced (%d, %d, %d)",
				src, traced.Bytes, traced.Messages, traced.TotalSteps,
				plain.Bytes, plain.Messages, plain.TotalSteps)
		}
		for site, v := range plain.Visits {
			if traced.Visits[site] != v {
				t.Errorf("%q: visits[%s] traced=%d untraced=%d", src, site, traced.Visits[site], v)
			}
		}
		checkSpanTree(t, traced.Spans)
		names := spanNames(traced.Spans)
		if names["round"] != 1 || names["lane"] != 1 {
			t.Errorf("%q: coalesced spans want one round + one lane, got %v", src, names)
		}
		if !strings.Contains(buf.String(), "round") {
			t.Errorf("%q: trace writer did not receive the round tree:\n%s", src, buf.String())
		}
		if plain.Spans != nil {
			t.Errorf("%q: untraced coalesced call collected spans", src)
		}
	}
}

// TestTracedCoalescedConcurrent: traced and untraced callers sharing
// one round — every traced caller receives the shared round tree (one
// lane span per traced round-mate), untraced round-mates receive
// nothing.
func TestTracedCoalescedConcurrent(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S2"},
		WithCoalescedServing(5*time.Millisecond, 64))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare(`//stock[price]`)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 12
	results := make([]*Result, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	done := make(chan int, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			<-start
			opts := []ExecOption{WithCoalescing()}
			if i%2 == 0 {
				opts = append(opts, WithSpans())
			}
			results[i], errs[i] = sys.Exec(context.Background(), q, opts...)
			done <- i
		}(i)
	}
	close(start)
	for i := 0; i < callers; i++ {
		<-done
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if i%2 == 0 {
			checkSpanTree(t, results[i].Spans)
			// The tree is shared by the round: one lane span per traced
			// round-mate, so at least this caller's own.
			if n := spanNames(results[i].Spans)["lane"]; n < 1 {
				t.Errorf("caller %d: %d lane spans, want >= 1", i, n)
			}
		} else if results[i].Spans != nil {
			t.Errorf("untraced caller %d received %d spans", i, len(results[i].Spans))
		}
	}
}

// TestIntrospectionEndpoints drives the coordinator's WithIntrospection
// plane end to end: /metrics exposes the per-site counters and
// histogram buckets, /healthz answers, /tracez shows traced Exec calls,
// and Close stops the server.
func TestIntrospectionEndpoints(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S2"},
		WithIntrospection("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.IntrospectionAddr()
	if addr == "" {
		t.Fatal("no introspection address")
	}
	q, err := Prepare(`//stock[price]`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sys.Exec(ctx, q, WithSpans()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"parbox_site_visits_total",
		"parbox_site_messages_in_total",
		"parbox_site_bytes_in_total",
		"parbox_site_steps_total",
		"parbox_site_sheds_total",
		"parbox_site_cache_hits_total",
		"parbox_site_request_seconds_bucket",
		`le="+Inf"`,
		"parbox_sched_rounds_total",
		`site="S1"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Families must be contiguous: one HELP line per family even with
	// several sites.
	if n := strings.Count(body, "# HELP parbox_site_visits_total"); n != 1 {
		t.Errorf("parbox_site_visits_total family declared %d times, want 1", n)
	}

	if code, body = get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body = get("/tracez"); code != http.StatusOK || !strings.Contains(body, "exec boolean") {
		t.Errorf("/tracez = %d, body lacks the traced exec:\n%s", code, body)
	}
	if code, body = get("/tracez?min=24h"); code != http.StatusOK || !strings.Contains(body, "0/") {
		t.Errorf("/tracez?min=24h = %d %q, want zero traces shown", code, body)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}

	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("introspection server still serving after Close")
	}
}

// TestIntrospectionBadAddr: a malformed listen address fails deployment
// loudly instead of silently dropping the plane.
func TestIntrospectionBadAddr(t *testing.T) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Deploy(forest, Assignment{0: "S0", 1: "S1", 2: "S2", 3: "S2"},
		WithIntrospection("256.0.0.1:99999"))
	if err == nil {
		t.Fatal("Deploy succeeded with an unusable introspection address")
	}
	if !strings.Contains(err.Error(), "WithIntrospection") {
		t.Errorf("error %v does not name the failing option", err)
	}
}

// TestSchedExecContextExpiry: a caller whose context expires while its
// round is in flight still detaches cleanly under tracing (the flusher
// must never write to an abandoned caller's writer).
func TestSchedExecContextExpiry(t *testing.T) {
	sys, _ := deployPortfolio(t)
	q, err := Prepare(`//stock[price]`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf strings.Builder
	// The round runs under context.Background, so it may still complete
	// and win the select even against a cancelled caller context — both
	// outcomes are legal. What must hold: an abandoning caller's writer
	// is never written by the flusher (rendering happens on the caller's
	// goroutine only), so under -race this test doubles as the proof.
	_, err = sys.Exec(ctx, q, WithCoalescing(), WithTrace(&buf))
	time.Sleep(20 * time.Millisecond)
	if err != nil && buf.String() != "" {
		t.Errorf("abandoned caller's writer was written to: %q", buf.String())
	}
}
