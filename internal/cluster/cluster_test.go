package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

func echoHandler(_ context.Context, _ *Site, req Request) (Response, error) {
	return Response{Payload: req.Payload, Steps: int64(len(req.Payload))}, nil
}

func TestCostModelMath(t *testing.T) {
	m := CostModel{Latency: time.Millisecond, BytesPerSecond: 1e6, StepsPerSecond: 1e6, MessageOverhead: 0}
	if got := m.TransferTime(1e6); got != time.Second {
		t.Errorf("TransferTime(1MB) = %v, want 1s", got)
	}
	if got := m.ComputeTime(2e6); got != 2*time.Second {
		t.Errorf("ComputeTime(2M) = %v, want 2s", got)
	}
	if got := m.RoundTrip(0, 0); got != 2*time.Millisecond {
		t.Errorf("RoundTrip(0,0) = %v, want 2ms", got)
	}
	var zero CostModel
	if zero.TransferTime(100) != 0 || zero.ComputeTime(100) != 0 {
		t.Error("zero cost model must charge nothing")
	}
}

func TestCallAndMetrics(t *testing.T) {
	c := New(DefaultCostModel())
	a := c.AddSite("A")
	b := c.AddSite("B")
	b.Handle("echo", echoHandler)
	a.Handle("echo", echoHandler)

	ctx := context.Background()
	resp, cost, err := c.Call(ctx, "A", "B", Request{Kind: "echo", Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "hello" {
		t.Errorf("echo returned %q", resp.Payload)
	}
	if cost.Net <= 0 {
		t.Error("remote call must have network cost")
	}
	if cost.Steps != 5 {
		t.Errorf("steps = %d, want 5", cost.Steps)
	}
	// Local call: no visit, no traffic, but steps counted.
	_, costLocal, err := c.Call(ctx, "A", "A", Request{Kind: "echo", Payload: []byte("xy")})
	if err != nil {
		t.Fatal(err)
	}
	if costLocal.Net != 0 {
		t.Errorf("local call has network cost %v", costLocal.Net)
	}
	m := c.Metrics()
	if got := m.Site("B").Visits; got != 1 {
		t.Errorf("B visits = %d, want 1", got)
	}
	if got := m.Site("A").Visits; got != 0 {
		t.Errorf("A visits = %d, want 0", got)
	}
	if got := m.TotalBytes(); got != 10 { // 5 req + 5 resp
		t.Errorf("TotalBytes = %d, want 10", got)
	}
	if got := m.TotalSteps(); got != 7 { // 5 remote + 2 local
		t.Errorf("TotalSteps = %d, want 7", got)
	}
	if got := m.TotalMessages(); got != 2 {
		t.Errorf("TotalMessages = %d, want 2", got)
	}
	if s := m.String(); !strings.Contains(s, "B") {
		t.Errorf("metrics table missing site B:\n%s", s)
	}
	m.Reset()
	if m.TotalBytes() != 0 || m.TotalSteps() != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestCallErrors(t *testing.T) {
	c := New(DefaultCostModel())
	c.AddSite("A")
	ctx := context.Background()
	if _, _, err := c.Call(ctx, "A", "nope", Request{Kind: "x"}); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("unknown site: %v", err)
	}
	if _, _, err := c.Call(ctx, "A", "A", Request{Kind: "unregistered"}); err == nil {
		t.Error("missing handler must fail")
	}
	b := c.AddSite("B")
	b.Handle("boom", func(context.Context, *Site, Request) (Response, error) {
		return Response{}, errors.New("kaput")
	})
	if _, _, err := c.Call(ctx, "A", "B", Request{Kind: "boom"}); err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("handler error not propagated: %v", err)
	}
	if got := c.Metrics().Site("B").Errors; got != 1 {
		t.Errorf("B errors = %d, want 1", got)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := c.Call(cctx, "A", "B", Request{Kind: "boom"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v", err)
	}
}

func TestSiteStorage(t *testing.T) {
	s := NewSite("X")
	fr := &frag.Fragment{ID: 3, Parent: 0, Root: xmltree.NewElement("a", "")}
	s.AddFragment(fr)
	if got, ok := s.Fragment(3); !ok || got != fr {
		t.Error("Fragment(3) lookup failed")
	}
	s.AddFragment(&frag.Fragment{ID: 1, Parent: 0, Root: xmltree.NewElement("b", "")})
	ids := s.FragmentIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Errorf("FragmentIDs = %v", ids)
	}
	s.RemoveFragment(3)
	if _, ok := s.Fragment(3); ok {
		t.Error("fragment not removed")
	}
	s.Put("k", 42)
	if v, ok := s.Get("k"); !ok || v.(int) != 42 {
		t.Error("state Put/Get failed")
	}
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Error("state not deleted")
	}
}

func TestAddSiteIdempotent(t *testing.T) {
	c := New(DefaultCostModel())
	a1 := c.AddSite("A")
	a2 := c.AddSite("A")
	if a1 != a2 {
		t.Error("AddSite created a duplicate site")
	}
	if got := c.Sites(); len(got) != 1 {
		t.Errorf("Sites = %v", got)
	}
}

func TestConcurrentCalls(t *testing.T) {
	c := New(DefaultCostModel())
	c.AddSite("A")
	b := c.AddSite("B")
	b.Handle("echo", echoHandler)
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Call(ctx, "A", "B", Request{Kind: "echo", Payload: []byte("p")}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := c.Metrics().Site("B").Visits; got != 64 {
		t.Errorf("B visits = %d, want 64", got)
	}
}

// TestUntracedCallAllocsNothing pins the untraced in-process hot path: a
// remote Cluster.Call — admission, dispatch, the callee's SiteStats
// ledger, the cost model — allocates nothing.
func TestUntracedCallAllocsNothing(t *testing.T) {
	c := New(DefaultCostModel())
	c.AddSite("A")
	c.AddSite("B").Handle("echo", echoHandler)
	ctx := context.Background()
	req := Request{Kind: "echo", Payload: []byte("hello")}
	if n := testing.AllocsPerRun(100, func() { c.Call(ctx, "A", "B", req) }); n != 0 {
		t.Errorf("untraced remote Call allocates %v times, want 0", n)
	}
	if got := c.Metrics().Site("B").Visits; got < 100 {
		t.Errorf("B visits = %d, the calls were not counted", got)
	}
}

// TestTracedCallSpans: a traced remote call records a client-side "call"
// span at the callee, labelled with the bytes it moved, whether it
// succeeded or failed; a local call records none (it costs no
// communication); concurrent traced calls get distinct span IDs.
func TestTracedCallSpans(t *testing.T) {
	c := New(DefaultCostModel())
	c.AddSite("A")
	b := c.AddSite("B")
	b.Handle("echo", echoHandler)
	b.Handle("boom", func(context.Context, *Site, Request) (Response, error) {
		return Response{}, errors.New("kaput")
	})
	col := obs.NewCollector()
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Collector: col})
	calls := func() map[string][]obs.Span {
		out := make(map[string][]obs.Span)
		for _, sp := range col.Spans() {
			if strings.HasPrefix(sp.Name, "call ") {
				out[sp.Name] = append(out[sp.Name], sp)
			}
		}
		return out
	}
	if _, _, err := c.Call(ctx, "A", "B", Request{Kind: "echo", Payload: []byte("xy")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Call(ctx, "B", "B", Request{Kind: "echo", Payload: []byte("local")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Call(ctx, "A", "B", Request{Kind: "boom"}); err == nil {
		t.Fatal("expected handler error")
	}
	got := calls()
	if echo := got["call echo"]; len(echo) != 1 {
		t.Fatalf("%d echo call spans, want 1 (local calls are not hops)", len(echo))
	} else if req, _ := echo[0].Attr("req_bytes"); req != 2 || echo[0].Site != "B" {
		t.Errorf("echo call span = %+v", echo[0])
	} else if resp, _ := echo[0].Attr("resp_bytes"); resp != 2 {
		t.Errorf("echo call span = %+v", echo[0])
	}
	if len(got["call boom"]) != 1 {
		t.Errorf("failed call left %d spans, want 1", len(got["call boom"]))
	}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Call(ctx, "A", "B", Request{Kind: "echo"})
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, sp := range col.Spans() {
		if seen[sp.ID] {
			t.Fatalf("duplicate span ID %x", sp.ID)
		}
		seen[sp.ID] = true
	}
	if n := len(calls()["call echo"]); n != 51 {
		t.Errorf("%d echo call spans after 50 concurrent calls, want 51", n)
	}
}

func TestRealDelays(t *testing.T) {
	cost := CostModel{Latency: 5 * time.Millisecond, BytesPerSecond: 1e9, RealDelays: true}
	c := New(cost)
	c.AddSite("A")
	b := c.AddSite("B")
	b.Handle("echo", echoHandler)
	start := time.Now()
	if _, _, err := c.Call(context.Background(), "A", "B", Request{Kind: "echo"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("RealDelays call took %v, want ≥ 10ms (two latencies)", elapsed)
	}
}

func TestTCPEcho(t *testing.T) {
	site := NewSite("R")
	site.Handle("echo", echoHandler)
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()
	ctx := context.Background()
	payload := strings.Repeat("data", 10000)
	resp, cost, err := tr.Call(ctx, "C", "R", Request{Kind: "echo", Payload: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != payload {
		t.Error("echo payload mismatch")
	}
	if resp.Steps != int64(len(payload)) {
		t.Errorf("steps = %d, want %d", resp.Steps, len(payload))
	}
	if cost.ReqBytes != len(payload) || cost.RespBytes != len(payload) {
		t.Errorf("cost bytes = %d/%d", cost.ReqBytes, cost.RespBytes)
	}
	if got := tr.Metrics().Site("R").Visits; got != 1 {
		t.Errorf("R visits = %d, want 1", got)
	}
}

func TestTCPErrors(t *testing.T) {
	site := NewSite("R")
	site.Handle("boom", func(context.Context, *Site, Request) (Response, error) {
		return Response{}, errors.New("remote kaput")
	})
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()
	ctx := context.Background()

	if _, _, err := tr.Call(ctx, "C", "nope", Request{Kind: "x"}); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("unknown site: %v", err)
	}
	_, _, err = tr.Call(ctx, "C", "R", Request{Kind: "boom"})
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "remote kaput") {
		t.Errorf("remote error: %v", err)
	}
	// The connection survives a handler error (it is a protocol-level
	// response, not a transport failure).
	site.Handle("ok", echoHandler)
	if _, _, err := tr.Call(ctx, "C", "R", Request{Kind: "ok", Payload: []byte("x")}); err != nil {
		t.Errorf("call after remote error: %v", err)
	}
	// Missing handler also travels back as ErrRemote.
	if _, _, err := tr.Call(ctx, "C", "R", Request{Kind: "unregistered"}); !errors.Is(err, ErrRemote) {
		t.Errorf("missing handler: %v", err)
	}
}

func TestTCPLocalSite(t *testing.T) {
	local := NewSite("L")
	local.Handle("echo", echoHandler)
	tr := NewTCPTransport(nil)
	defer tr.Close()
	tr.Local(local)
	resp, cost, err := tr.Call(context.Background(), "L", "L", Request{Kind: "echo", Payload: []byte("in-proc")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "in-proc" {
		t.Error("local dispatch failed")
	}
	if cost.Net != 0 {
		t.Error("local call must be free")
	}
	if got := tr.Metrics().Site("L").Visits; got != 0 {
		t.Errorf("local call counted as visit: %d", got)
	}
}

func TestTCPServerClose(t *testing.T) {
	site := NewSite("R")
	site.Handle("echo", echoHandler)
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()
	if _, _, err := tr.Call(context.Background(), "C", "R", Request{Kind: "echo"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Calls after close must fail (possibly after a reconnect attempt).
	if _, _, err := tr.Call(context.Background(), "C", "R", Request{Kind: "echo"}); err == nil {
		if _, _, err2 := tr.Call(context.Background(), "C", "R", Request{Kind: "echo"}); err2 == nil {
			t.Error("call to closed server succeeded twice")
		}
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	site := NewSite("R")
	site.Handle("echo", echoHandler)
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(strings.Repeat("x", i+1))
			resp, _, err := tr.Call(context.Background(), "C", "R", Request{Kind: "echo", Payload: payload})
			if err != nil {
				t.Error(err)
				return
			}
			if len(resp.Payload) != len(payload) {
				t.Errorf("response length %d, want %d (interleaved frames?)", len(resp.Payload), len(payload))
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPContextDeadline(t *testing.T) {
	site := NewSite("R")
	site.Handle("slow", func(ctx context.Context, _ *Site, _ Request) (Response, error) {
		time.Sleep(200 * time.Millisecond)
		return Response{}, nil
	})
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := tr.Call(ctx, "C", "R", Request{Kind: "slow"}); err == nil {
		t.Error("deadline exceeded call succeeded")
	}
}
