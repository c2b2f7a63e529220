package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frag"
)

// TestV2OutOfOrderResponses pins the multiplexing property the refactor
// exists for: a slow request does not head-of-line block a fast one on
// the same connection — the fast response overtakes it.
func TestV2OutOfOrderResponses(t *testing.T) {
	site := NewSite("R")
	release := make(chan struct{})
	site.Handle("slow", func(context.Context, *Site, Request) (Response, error) {
		<-release
		return Response{Payload: []byte("slow")}, nil
	})
	site.Handle("fast", func(context.Context, *Site, Request) (Response, error) {
		return Response{Payload: []byte("fast")}, nil
	})
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()
	ctx := context.Background()

	slowCh := tr.Go(ctx, "C", "R", Request{Kind: "slow"})
	fastCh := tr.Go(ctx, "C", "R", Request{Kind: "fast"})
	select {
	case r := <-fastCh:
		if r.Err != nil {
			t.Fatalf("fast call: %v", r.Err)
		}
		if string(r.Resp.Payload) != "fast" {
			t.Fatalf("fast payload = %q", r.Resp.Payload)
		}
	case <-slowCh:
		t.Fatal("slow response arrived before fast — no multiplexing")
	case <-time.After(5 * time.Second):
		t.Fatal("fast call never completed while slow was pending")
	}
	close(release)
	if r := <-slowCh; r.Err != nil || string(r.Resp.Payload) != "slow" {
		t.Fatalf("slow call: %v %q", r.Err, r.Resp.Payload)
	}
}

// TestV2DeadlineResolvesOnlyItsCall: a caller whose context expires gets
// its error immediately; the shared connection survives and concurrent
// and subsequent calls on it are unaffected.
func TestV2DeadlineResolvesOnlyItsCall(t *testing.T) {
	site := NewSite("R")
	release := make(chan struct{})
	site.Handle("stall", func(context.Context, *Site, Request) (Response, error) {
		<-release
		return Response{Payload: []byte("late")}, nil
	})
	site.Handle("echo", echoHandler)
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := tr.Call(ctx, "C", "R", Request{Kind: "stall"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call error = %v, want deadline exceeded", err)
	}
	// The connection must still carry other traffic while the stalled
	// handler is unfinished server-side...
	if resp, _, err := tr.Call(context.Background(), "C", "R", Request{Kind: "echo", Payload: []byte("alive")}); err != nil || string(resp.Payload) != "alive" {
		t.Fatalf("call after abandoned request: %v %q", err, resp.Payload)
	}
	// ...and after its late response is discarded by the demultiplexer.
	close(release)
	if resp, _, err := tr.Call(context.Background(), "C", "R", Request{Kind: "echo", Payload: []byte("still")}); err != nil || string(resp.Payload) != "still" {
		t.Fatalf("call after late response: %v %q", err, resp.Payload)
	}
}

// TestV2PipelinedSoak floods one site over one multiplexed connection
// from many goroutines with distinct payloads and verifies every caller
// receives exactly its own answer (the request-ID demux invariant).
func TestV2PipelinedSoak(t *testing.T) {
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
	for i := 0; i < 128; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("x", i*7%257)))
			for j := 0; j < 8; j++ {
				resp, _, err := tr.Call(context.Background(), "C", "R", Request{Kind: "echo", Payload: payload})
				if err != nil {
					t.Error(err)
					return
				}
				if string(resp.Payload) != string(payload) {
					t.Errorf("caller %d got someone else's response (%d bytes, want %d)", i, len(resp.Payload), len(payload))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := tr.Metrics().Site("R").Visits; got != 128*8 {
		t.Errorf("visits = %d, want %d", got, 128*8)
	}
}

// TestHandshakeRejectsV1Peer pins the daemon-facing guarantee: a legacy
// v1 peer gets a readable v1-framed error response to every request on its
// connection, not frame corruption — while a v2 peer of the same server
// works.
func TestHandshakeRejectsV1Peer(t *testing.T) {
	site := NewSite("R")
	site.Handle("echo", echoHandler)
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	// Every request must see the readable error — v1 clients pooled a
	// connection that answered, so the server must keep answering it, not
	// close it.
	for i := 0; i < 3; i++ {
		// A v1 request frame: kind, then payload, each length-prefixed.
		if err := writeBytes(w, []byte("echo")); err != nil {
			t.Fatal(err)
		}
		if err := writeBytes(w, []byte("hi")); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// A v1 response frame: status, steps, cache hits, cache misses, body.
		status, err := r.ReadByte()
		if err != nil {
			t.Fatalf("attempt %d: reading the rejection: %v", i, err)
		}
		for range 3 {
			if _, err := binary.ReadUvarint(r); err != nil {
				t.Fatal(err)
			}
		}
		var scratch []byte
		body, err := readBytesReuse(r, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if status != tcpStatusErr || !strings.Contains(string(body), "wire protocol v2") {
			t.Fatalf("v1 peer rejection (attempt %d) = status %d %q, want an error mentioning wire protocol v2", i, status, body)
		}
	}

	v2 := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer v2.Close()
	if resp, _, err := v2.Call(context.Background(), "C", "R", Request{Kind: "echo", Payload: []byte("hi")}); err != nil || string(resp.Payload) != "hi" {
		t.Fatalf("v2 peer: %v", err)
	}
}

// TestHandshakeRejectsUnknownVersion: a server answers an unsupported
// version byte with an explicit rejection, and the client surfaces it
// as ErrProtocolVersion.
func TestHandshakeRejectsUnknownVersion(t *testing.T) {
	site := NewSite("R")
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{v2Magic, 99}); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 2)
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	if reply[0] != v2Magic || reply[1] != v2Reject {
		t.Fatalf("rejection reply = %v, want [%#x %#x]", reply, v2Magic, v2Reject)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("server kept the rejected connection open: %v", err)
	}
}

// TestServerGracefulClose: Close must drain — a request in flight when
// Close begins still gets its response before the connection goes away.
func TestServerGracefulClose(t *testing.T) {
	site := NewSite("R")
	entered := make(chan struct{})
	site.Handle("slow", func(context.Context, *Site, Request) (Response, error) {
		close(entered)
		time.Sleep(100 * time.Millisecond)
		return Response{Payload: []byte("drained")}, nil
	})
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()

	ch := tr.Go(context.Background(), "C", "R", Request{Kind: "slow"})
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	r := <-ch
	if r.Err != nil {
		t.Fatalf("in-flight request lost to Close: %v", r.Err)
	}
	if string(r.Resp.Payload) != "drained" {
		t.Fatalf("drained payload = %q", r.Resp.Payload)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestConnFailureFailsAllPending: a connection-level failure resolves
// every pending call with the error and later calls redial.
func TestConnFailureFailsAllPending(t *testing.T) {
	site := NewSite("R")
	stall := make(chan struct{})
	site.Handle("stall", func(context.Context, *Site, Request) (Response, error) {
		<-stall
		return Response{}, nil
	})
	srv, err := Serve(site, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(stall)
	tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
	defer tr.Close()

	const n = 8
	chans := make([]<-chan Reply, n)
	for i := range chans {
		chans[i] = tr.Go(context.Background(), "C", "R", Request{Kind: "stall"})
	}
	// Wait until the transport actually has the mux pooled, then break it.
	var mux *muxConn
	for i := 0; i < 100; i++ {
		tr.mu.Lock()
		mux = tr.muxes["R"]
		tr.mu.Unlock()
		if mux != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if mux == nil {
		t.Fatal("no pooled v2 connection")
	}
	mux.conn.Close()
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err == nil {
				t.Errorf("call %d succeeded across a dead connection", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still pending after connection failure", i)
		}
	}
	tr.mu.Lock()
	pooled := len(tr.muxes)
	tr.mu.Unlock()
	if pooled != 0 {
		t.Errorf("broken connection still pooled (%d)", pooled)
	}
}

// TestClusterGo pins the in-memory async path: same response and
// deterministic modeled cost as Call, handler running concurrently.
func TestClusterGo(t *testing.T) {
	c := New(DefaultCostModel())
	c.AddSite("A")
	b := c.AddSite("B")
	b.Handle("echo", echoHandler)
	payload := []byte(strings.Repeat("p", 1000))
	r := <-c.Go(context.Background(), "A", "B", Request{Kind: "echo", Payload: payload})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	_, syncCost, err := c.Call(context.Background(), "A", "B", Request{Kind: "echo", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost.Net != syncCost.Net || r.Cost.Compute != syncCost.Compute {
		t.Errorf("async cost (net %v, compute %v) != sync cost (net %v, compute %v)",
			r.Cost.Net, r.Cost.Compute, syncCost.Net, syncCost.Compute)
	}
}

// TestGoFallbackWrapsCall: a Transport that does not implement
// AsyncTransport still works through cluster.Go, and sees every call
// (the property wrapper transports rely on).
func TestGoFallbackWrapsCall(t *testing.T) {
	c := New(DefaultCostModel())
	c.AddSite("A")
	b := c.AddSite("B")
	b.Handle("echo", echoHandler)
	var calls atomic.Int64
	counted := countingTransport{inner: c, calls: &calls}
	r := <-Go(context.Background(), counted, "A", "B", Request{Kind: "echo", Payload: []byte("x")})
	if r.Err != nil || string(r.Resp.Payload) != "x" {
		t.Fatalf("fallback call: %v", r.Err)
	}
	if calls.Load() != 1 {
		t.Errorf("wrapper saw %d calls, want 1", calls.Load())
	}
}

type countingTransport struct {
	inner Transport
	calls *atomic.Int64
}

func (t countingTransport) Call(ctx context.Context, from, to frag.SiteID, req Request) (Response, CallCost, error) {
	t.calls.Add(1)
	return t.inner.Call(ctx, from, to, req)
}

// TestV2HandshakeAgainstSilentPeer: dialing something that never
// answers the handshake fails with ErrProtocolVersion once the dial
// timeout elapses, instead of hanging.
func TestV2HandshakeAgainstSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Read but never answer — a v1 server parsing our magic byte
			// as a kind length would behave like this.
			go func() { io.Copy(io.Discard, conn) }()
		}
	}()
	tr := NewTCPTransport(map[frag.SiteID]string{"R": ln.Addr().String()})
	tr.DialTimeout = 200 * time.Millisecond
	defer tr.Close()
	_, _, err = tr.Call(context.Background(), "C", "R", Request{Kind: "echo"})
	if !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("silent peer error = %v, want ErrProtocolVersion", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestV2PushDeltaRoundTrip: a client that subscribes over the wire
// receives every Site.PushDelta payload as a server-initiated push
// frame, interleaved request/response traffic is unaffected, and
// cancelling the subscription stops delivery.
func TestV2PushDeltaRoundTrip(t *testing.T) {
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

	got := make(chan []byte, 16)
	cancel, err := tr.SubscribeDeltas(ctx, "C", "R", func(b []byte) {
		got <- append([]byte(nil), b...)
	})
	if err != nil {
		t.Fatalf("SubscribeDeltas: %v", err)
	}
	// The subscribe ack round-tripped, so the server-side forward is
	// installed: pushes from here on must arrive.
	for i := 0; i < 3; i++ {
		if n := site.PushDelta([]byte{byte('a' + i)}); n != 1 {
			t.Fatalf("PushDelta fan-out = %d observers, want 1", n)
		}
		// Request/response traffic shares the connection with pushes.
		if resp, _, err := tr.Call(ctx, "C", "R", Request{Kind: "echo", Payload: []byte("mid")}); err != nil || string(resp.Payload) != "mid" {
			t.Fatalf("interleaved call %d: %v %q", i, err, resp.Payload)
		}
		select {
		case b := <-got:
			if want := string(byte('a' + i)); string(b) != want {
				t.Fatalf("push %d = %q, want %q", i, b, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("push %d never delivered", i)
		}
	}
	if got := site.Stats().Snapshot().DeltasPushed; got != 3 {
		t.Fatalf("DeltasPushed = %d, want 3", got)
	}

	cancel()
	// After cancel the client observer is gone; the server may still
	// forward frames, but none may reach fn.
	site.PushDelta([]byte("late"))
	if resp, _, err := tr.Call(ctx, "C", "R", Request{Kind: "echo", Payload: []byte("after")}); err != nil || string(resp.Payload) != "after" {
		t.Fatalf("call after cancel: %v %q", err, resp.Payload)
	}
	select {
	case b := <-got:
		t.Fatalf("push %q delivered after cancel", b)
	default:
	}
}

// TestSubscribeDeltasLocal: the local fast path registers directly on the
// site.
func TestSubscribeDeltasLocal(t *testing.T) {
	local := NewSite("L")
	tr := NewTCPTransport(nil)
	tr.Local(local)
	defer tr.Close()
	got := make(chan []byte, 1)
	cancel, err := tr.SubscribeDeltas(context.Background(), "C", "L", func(b []byte) { got <- b })
	if err != nil {
		t.Fatalf("local SubscribeDeltas: %v", err)
	}
	defer cancel()
	local.PushDelta([]byte("direct"))
	select {
	case b := <-got:
		if string(b) != "direct" {
			t.Fatalf("local push = %q", b)
		}
	case <-time.After(time.Second):
		t.Fatal("local push never delivered")
	}
}
