package cluster

// Tests for overload protection: the admission controller, wire-level
// deadline propagation (a budget that expired must provably stop
// server-side work), typed shed responses over TCP, and the seedable
// fault injectors the chaos suites script with.

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frag"
)

func TestAdmissionInflightWatermark(t *testing.T) {
	a := &admission{limit: 2}
	for i := 0; i < 2; i++ {
		if err := a.admit("S"); err != nil {
			t.Fatal(err)
		}
	}
	err := a.admit("S")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third admit error = %v, want overloaded", err)
	}
	if hint := RetryAfterHint(err); hint != 2*retryAfterPerInflight {
		t.Fatalf("hint = %v, want %v (2 inflight × 500µs)", hint, 2*retryAfterPerInflight)
	}
	a.release()
	if err := a.admit("S"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	// A limit of 0 removes the controller: the site admits everything.
	site := NewSite("S")
	site.SetAdmission(1)
	site.SetAdmission(0)
	if site.admit != nil {
		t.Fatal("SetAdmission(0) left an admission controller")
	}
}

// rawV2Call dials the server, handshakes v2, and exchanges exactly one
// frame with an explicit deadline budget — bypassing the transport so the
// test controls the wire deadline independently of any client context.
func rawV2Call(t *testing.T, addr string, deadlineMicros uint64, kind string, payload []byte) (byte, Response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, err := clientHandshake(conn, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendV2Request(nil, 1, deadlineMicros, 0, 0, kind, payload)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	id, status, resp, err := readV2Response(r)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("response id = %d, want 1", id)
	}
	return status, resp
}

// TestWireDeadlinePreExpired: a request arriving with an (effectively)
// already-expired budget must do zero evaluation work at the site and
// answer status 2. The handler gates all its work on the context, so the
// assertion holds however the 1µs expiry races goroutine scheduling.
func TestWireDeadlinePreExpired(t *testing.T) {
	site := NewSite("R")
	var work atomic.Int64
	site.Handle("eval", func(ctx context.Context, _ *Site, _ Request) (Response, error) {
		select {
		case <-ctx.Done():
			return Response{}, ctx.Err()
		case <-time.After(10 * time.Second):
			work.Add(1)
			return Response{Payload: []byte("did work nobody waited for")}, nil
		}
	})
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	status, _ := rawV2Call(t, srv.Addr(), 1, "eval", nil)
	if status != tcpStatusDeadline {
		t.Fatalf("status = %d, want %d (deadline expired)", status, tcpStatusDeadline)
	}
	if n := work.Load(); n != 0 {
		t.Fatalf("pre-expired request did %d units of work, want 0", n)
	}
}

// TestWireDeadlineMidFlight: a budget that expires while the handler runs
// aborts the evaluation partway — the site answers status 2 and the
// handler provably stopped early (fewer steps than a full run).
func TestWireDeadlineMidFlight(t *testing.T) {
	const totalSteps = 1000
	site := NewSite("R")
	var steps atomic.Int64
	site.Handle("eval", func(ctx context.Context, _ *Site, _ Request) (Response, error) {
		for i := 0; i < totalSteps; i++ {
			if err := ctx.Err(); err != nil {
				return Response{}, err // the per-fragment abort point
			}
			steps.Add(1)
			time.Sleep(time.Millisecond)
		}
		return Response{Payload: []byte("full run")}, nil
	})
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	budget := uint64(50_000) // 50ms: expires mid-loop
	status, _ := rawV2Call(t, srv.Addr(), budget, "eval", nil)
	if status != tcpStatusDeadline {
		t.Fatalf("status = %d, want %d (deadline expired)", status, tcpStatusDeadline)
	}
	if n := steps.Load(); n == 0 || n >= totalSteps {
		t.Fatalf("steps = %d, want mid-flight abort in (0, %d)", n, totalSteps)
	}
}

// TestWireDeadlineZeroMeansNone: budget 0 is the no-deadline sentinel —
// the request runs unbounded, exactly today's behavior for v1 peers and
// deadline-less callers.
func TestWireDeadlineZeroMeansNone(t *testing.T) {
	site := NewSite("R")
	site.Handle("echo", echoHandler)
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	status, resp := rawV2Call(t, srv.Addr(), 0, "echo", []byte("hi"))
	if status != tcpStatusOK || string(resp.Payload) != "hi" {
		t.Fatalf("status %d payload %q, want ok %q", status, resp.Payload, "hi")
	}
}

// TestDeadlinePropagatesThroughTransport: a client context deadline rides
// the wire and aborts server-side work even though the server dispatches
// handlers with no client connection state — the regression test for the
// deadline-propagation tentpole end to end through the real transport.
func TestDeadlinePropagatesThroughTransport(t *testing.T) {
	site := NewSite("R")
	var aborted atomic.Bool
	started := make(chan struct{})
	site.Handle("stall", func(ctx context.Context, _ *Site, _ Request) (Response, error) {
		close(started)
		select {
		case <-ctx.Done():
			aborted.Store(true)
			return Response{}, ctx.Err()
		case <-time.After(30 * time.Second):
			return Response{Payload: []byte("never")}, nil
		}
	})
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, err = tr.Call(ctx, "C", "R", Request{Kind: "stall"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	<-started
	// The server-side handler must observe the expiry via the propagated
	// wire deadline (its own context), not merely the client giving up.
	deadline := time.After(5 * time.Second)
	for !aborted.Load() {
		select {
		case <-deadline:
			t.Fatal("server-side handler never saw the propagated deadline")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestAdmissionShedOverTCP: a saturated site sheds with a typed,
// retryable overload error carrying a retry-after hint; Control kinds
// pass; the client transport counts the sheds it observes.
func TestAdmissionShedOverTCP(t *testing.T) {
	site := NewSite("R")
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	site.Handle("eval", func(ctx context.Context, _ *Site, _ Request) (Response, error) {
		entered <- struct{}{}
		<-block
		return Response{Payload: []byte("done")}, nil
	})
	site.Handle(testControl, echoHandler)
	site.SetAdmission(1)
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()
	ctx := context.Background()

	first := tr.Go(ctx, "C", "R", Request{Kind: "eval"})
	<-entered // the slot is taken

	_, _, err = tr.Call(ctx, "C", "R", Request{Kind: "eval"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated call err = %v, want overloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Site != "R" || oe.RetryAfter <= 0 {
		t.Fatalf("shed error = %#v, want typed with site R and a positive hint", err)
	}
	// Control kinds (probes) never shed: an overloaded site is busy, not
	// dead.
	if resp, _, err := tr.Call(ctx, "C", "R", Request{Kind: testControl, Payload: []byte("up?")}); err != nil || string(resp.Payload) != "up?" {
		t.Fatalf("probe under overload: %v %q", err, resp.Payload)
	}
	close(block)
	if r := <-first; r.Err != nil {
		t.Fatalf("admitted call failed: %v", r.Err)
	}
	if n := tr.Metrics().TotalSheds(); n != 1 {
		t.Fatalf("client-side shed count = %d, want 1", n)
	}
	if n := site.Stats().Snapshot().Sheds; n != 1 {
		t.Fatalf("server-side shed count = %d, want 1", n)
	}
}

// TestNestedSameSiteCallRunsUnderParentAdmission: a handler's call to
// its own site runs under the admission the handler holds, in process and
// through a TCP daemon's local short-circuit; a hop that leaves the site
// and comes back is admitted afresh, even through a site without
// admission control.
func TestNestedSameSiteCallRunsUnderParentAdmission(t *testing.T) {
	ctx := context.Background()
	nest := func(tr Transport, to frag.SiteID, kind string) Handler {
		return func(ctx context.Context, site *Site, _ Request) (Response, error) {
			resp, _, err := tr.Call(ctx, site.ID(), to, Request{Kind: kind})
			return resp, err
		}
	}

	c := New(CostModel{})
	a, b := c.AddSite("A"), c.AddSite("B")
	a.SetAdmission(1)
	a.Handle("leaf", echoHandler)
	a.Handle("self", nest(c, "A", "leaf"))
	a.Handle("cycle", nest(c, "B", "back"))
	b.Handle("back", nest(c, "A", "leaf"))
	if _, _, err := c.Call(ctx, "C", "A", Request{Kind: "self"}); err != nil {
		t.Fatalf("same-site nested call: %v", err)
	}
	if _, _, err := c.Call(ctx, "C", "A", Request{Kind: "cycle"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("A→B→A under a limit of 1: err = %v, want overloaded", err)
	}

	site := NewSite("R")
	site.SetAdmission(1)
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	daemon := NewTCPTransport(nil)
	defer daemon.Close()
	daemon.Local(site)
	site.Handle("leaf", echoHandler)
	site.Handle("self", nest(daemon, "R", "leaf"))
	client := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer client.Close()
	if _, _, err := client.Call(ctx, "C", "R", Request{Kind: "self"}); err != nil {
		t.Fatalf("same-site nested call over TCP: %v", err)
	}
	if n := site.Stats().Snapshot().Sheds; n != 0 {
		t.Fatalf("daemon shed %d calls, want 0", n)
	}
}

// okTransport answers every call successfully; the fault injectors wrap
// it so tests observe exactly the injected behavior.
type okTransport struct{}

func (okTransport) Call(ctx context.Context, from, to frag.SiteID, req Request) (Response, CallCost, error) {
	return Response{Payload: req.Payload}, CallCost{}, nil
}

// TestSeededFaultsReplay: the same seeds produce the same flake schedule
// and the same jittered delays, so chaos runs are reproducible.
func TestSeededFaultsReplay(t *testing.T) {
	run := func() []bool {
		ft := &FaultyTransport{Inner: okTransport{}}
		ft.FlakySite("B", 0.5, rand.NewSource(99))
		outcomes := make([]bool, 64)
		for i := range outcomes {
			_, _, err := ft.Call(context.Background(), "A", "B", Request{Kind: "x"})
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b := run(), run()
	sawFail, sawOK := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: same seed, different outcome", i)
		}
		if a[i] {
			sawFail = true
		} else {
			sawOK = true
		}
	}
	if !sawFail || !sawOK {
		t.Fatalf("p=0.5 schedule degenerate (fail=%v ok=%v)", sawFail, sawOK)
	}
}

func TestOverloadSiteFault(t *testing.T) {
	ft := &FaultyTransport{Inner: okTransport{}}
	ft.OverloadSite("B", 3*time.Millisecond)
	_, _, err := ft.Call(context.Background(), "A", "B", Request{Kind: "x"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want overloaded", err)
	}
	if hint := RetryAfterHint(err); hint != 3*time.Millisecond {
		t.Fatalf("hint = %v, want 3ms", hint)
	}
	// Local calls are never faulted.
	if _, _, err := ft.Call(context.Background(), "B", "B", Request{Kind: "x"}); err != nil {
		t.Fatalf("local call faulted: %v", err)
	}
	ft.ReviveSite("B")
	if _, _, err := ft.Call(context.Background(), "A", "B", Request{Kind: "x"}); err != nil {
		t.Fatalf("revived call: %v", err)
	}
}

func TestSlowSiteJitterSeeded(t *testing.T) {
	ft := &FaultyTransport{Inner: okTransport{}}
	ft.SlowSite("B", 4*time.Millisecond, rand.NewSource(7))
	start := time.Now()
	if _, _, err := ft.Call(context.Background(), "A", "B", Request{}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Fatalf("jittered delay %v below d/2", el)
	}
	// A slow site still honors call cancellation.
	ft.SlowSite("B", 10*time.Second, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := ft.Call(ctx, "A", "B", Request{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call under deadline: %v", err)
	}
}
