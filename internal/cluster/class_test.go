package cluster

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/frag"
	"repro/internal/obs"
)

// Test kinds, one per class.
const (
	testPure      = "test.pure"
	testSiteBound = "test.siteBound"
	testControl   = "test.control"
)

func init() {
	Declare(map[string]Class{testPure: Pure, testSiteBound: SiteBound, testControl: Control})
}

// onBothTransports runs body against a site "R" reached in process and
// against one served over TCP; setup configures each site before it
// serves. body calls the site from another site, "C", through tr.
func onBothTransports(t *testing.T, setup func(*Site), body func(t *testing.T, site *Site, tr Transport)) {
	t.Run("inprocess", func(t *testing.T) {
		c := New(CostModel{})
		site := c.AddSite("R")
		setup(site)
		body(t, site, c)
	})
	t.Run("tcp", func(t *testing.T) {
		site := NewSite("R")
		setup(site)
		srv, err := Serve(site, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tr := NewTCPTransport(map[frag.SiteID]string{"R": srv.Addr()})
		defer tr.Close()
		body(t, site, tr)
	})
}

// blocker is a handler that holds its admission slot until it receives
// on release; entered receives once per call as it starts.
func blocker() (h Handler, entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}, 1), make(chan struct{})
	return func(context.Context, *Site, Request) (Response, error) {
		entered <- struct{}{}
		<-release
		return Response{}, nil
	}, entered, release
}

// TestKindClassAdmissionAndLedger: with the only admission slot held,
// every Control kind is answered and leaves the site's ledger as it was,
// and every Pure and SiteBound kind is shed with a retry-after hint.
func TestKindClassAdmissionAndLedger(t *testing.T) {
	kinds := make([]string, 0, len(classes))
	for k := range classes {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	block, entered, release := blocker()
	onBothTransports(t, func(site *Site) {
		for _, k := range kinds {
			site.Handle(k, echoHandler)
		}
		RegisterStatsHandler(site)
		site.Handle("test.block", block)
		site.SetAdmission(1)
	}, func(t *testing.T, site *Site, tr Transport) {
		ctx := context.Background()
		held := Go(ctx, tr, "C", "R", Request{Kind: "test.block"})
		<-entered
		// ledgers reads the site's own ledger and, over TCP, the caller's
		// client-side block for the site.
		ledgers := func() (out [][6]uint64) {
			blocks := []obs.SiteStatsSnapshot{site.Stats().Snapshot()}
			if tcp, ok := tr.(*TCPTransport); ok {
				blocks = append(blocks, tcp.Metrics().Site("R"))
			}
			for _, b := range blocks {
				out = append(out, [6]uint64{b.Visits, b.MessagesIn, b.MessagesOut, b.BytesIn, b.BytesOut, b.Latency.Count})
			}
			return out
		}
		for _, kind := range kinds {
			before := ledgers()
			_, _, err := tr.Call(ctx, "C", "R", Request{Kind: kind, Payload: []byte("x")})
			if ClassOf(kind) == Control {
				if err != nil {
					t.Errorf("%s (Control) under a full site: %v", kind, err)
				}
				if after := ledgers(); !reflect.DeepEqual(after, before) {
					t.Errorf("%s (Control) moved the visit/message/byte/latency ledger: %v → %v", kind, before, after)
				}
				continue
			}
			if !errors.Is(err, ErrOverloaded) || RetryAfterHint(err) <= 0 {
				t.Errorf("%s (class %d) under a full site: err = %v, want a shed with a retry-after hint", kind, ClassOf(kind), err)
			}
		}
		release <- struct{}{}
		if r := <-held; r.Err != nil {
			t.Fatalf("the call holding the slot: %v", r.Err)
		}
	})
}

// TestHandlerPanicIsContained: a panicking handler answers an error
// wrapping ErrHandlerPanic, is counted in Errors, and gives its
// admission slot back; over TCP the connection keeps serving.
func TestHandlerPanicIsContained(t *testing.T) {
	onBothTransports(t, func(site *Site) {
		site.Handle("test.panic", func(context.Context, *Site, Request) (Response, error) { panic("boom") })
		site.Handle(testSiteBound, echoHandler)
		site.SetAdmission(1)
	}, func(t *testing.T, site *Site, tr Transport) {
		ctx := context.Background()
		_, _, err := tr.Call(ctx, "C", "R", Request{Kind: "test.panic"})
		if err == nil || !(errors.Is(err, ErrHandlerPanic) || strings.Contains(err.Error(), ErrHandlerPanic.Error())) {
			t.Fatalf("panicking handler: err = %v, want %v", err, ErrHandlerPanic)
		}
		// connOf is the pooled TCP connection to R (nil in process).
		connOf := func() *muxConn {
			tcp, ok := tr.(*TCPTransport)
			if !ok {
				return nil
			}
			tcp.mu.Lock()
			defer tcp.mu.Unlock()
			return tcp.muxes["R"]
		}
		conn := connOf()
		resp, _, err := tr.Call(ctx, "C", "R", Request{Kind: testSiteBound, Payload: []byte("after")})
		if err != nil || string(resp.Payload) != "after" {
			t.Fatalf("call after the panic: %q, %v", resp.Payload, err)
		}
		if connOf() != conn {
			t.Fatal("the panic cost the connection")
		}
		if n := site.Stats().Snapshot().Errors; n != 1 {
			t.Fatalf("Errors = %d, want 1", n)
		}
	})
}

// TestUnknownKindCountsError: a request no handler serves is a visit
// that ends in an error, not a visit with no outcome.
func TestUnknownKindCountsError(t *testing.T) {
	onBothTransports(t, func(*Site) {}, func(t *testing.T, site *Site, tr Transport) {
		if _, _, err := tr.Call(context.Background(), "C", "R", Request{Kind: "test.nope"}); err == nil {
			t.Fatal("a kind with no handler answered")
		}
		if s := site.Stats().Snapshot(); s.Visits != 1 || s.Errors != 1 || s.Latency.Count != 0 {
			t.Fatalf("visits %d, errors %d, latency count %d; want 1, 1, 0", s.Visits, s.Errors, s.Latency.Count)
		}
	})
}
