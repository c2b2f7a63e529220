package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/frag"
	"repro/internal/obs"
)

// The transport speaks the multiplexed v2 wire protocol only (see
// wirev2.go). Of the legacy v1 format — one request in flight per
// connection —
//
//	request:  uvarint kind length, kind bytes, uvarint payload length, payload
//	response: one status byte (0 ok, 1 error), uvarint steps,
//	          uvarint cache hits, uvarint cache misses,
//	          uvarint body length, body (payload or error text)
//
// the server keeps exactly enough to tell a version-skewed peer so in its
// own framing (rejectV1): it sniffs the first byte of every connection.

const (
	tcpStatusOK  byte = 0
	tcpStatusErr byte = 1
	// tcpStatusDeadline reports the request's wire-propagated
	// deadline expired at the site; work was aborted or never started.
	tcpStatusDeadline byte = 2
	// tcpStatusOverload reports admission control shed the
	// request; the body carries a uvarint retry-after hint in µs.
	tcpStatusOverload byte = 3
	// tcpStatusPush (version ≥ 4) marks a server-initiated frame:
	// not a reply to any request, but a maintenance delta pushed to a
	// connection that subscribed with SubscribeDeltasKind. Push frames
	// carry request ID 0 — client-assigned IDs start at 1 — and the body
	// is the delta payload (views.DecodeDelta). The demultiplexer routes
	// them to the connection's push observers and never to a pending call.
	tcpStatusPush byte = 4
)

// SubscribeDeltasKind is the wire request kind that subscribes the
// issuing v2 connection to the site's maintenance deltas: the server
// acks with an empty OK response and thereafter forwards every
// Site.PushDelta payload as a tcpStatusPush frame until the connection
// closes. Handled by the server's connection loop, never dispatched to a
// site handler.
const SubscribeDeltasKind = "cluster.subscribeDeltas"

// maxFrame bounds accepted frame bodies (64 MiB) so a corrupt length prefix
// cannot trigger an absurd allocation.
const maxFrame = 64 << 20

var errFrameTooBig = errors.New("cluster: frame exceeds size limit")

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func writeBytes(w *bufio.Writer, b []byte) error {
	if err := writeUvarint(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readBytesReuse reads one length-prefixed field into a connection-scoped
// scratch buffer, which grows to the high-water mark of the connection's
// fields. The returned slice aliases *scratch and is only valid until the
// next call.
func readBytesReuse(r *bufio.Reader, scratch *[]byte) ([]byte, error) {
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, errFrameTooBig
	}
	if uint64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	b := (*scratch)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// drainTimeout bounds how long Server.Close waits for in-flight requests
// to finish and their responses to flush before force-closing connections.
const drainTimeout = 5 * time.Second

// Server exposes one site over TCP. A connection serves any number of
// requests concurrently (per-request handler goroutines, responses
// multiplexed by request ID), and multiple connections serve
// concurrently.
type Server struct {
	site *Site
	ln   net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// Serve starts serving the site on addr ("host:port"; ":0" picks a free
// port). It returns immediately; use Addr for the bound address and Close
// to stop.
func Serve(site *Site, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	s := &Server{site: site, ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and shuts down gracefully: every connection
// stops reading new requests, in-flight requests run to completion and
// their responses are flushed, then the connections close. Connections
// still busy past the drain timeout are force-closed; a handler that
// remains wedged in dispatch past a second drain timeout (handlers run
// uncancelled and a force-closed socket cannot interrupt computation)
// is abandoned — Close returns rather than hang the shutdown path.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		// Kick readers out of their blocking read; writes (in-flight
		// responses) are unaffected.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		select {
		case <-done:
		case <-time.After(drainTimeout):
		}
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn sniffs the connection's protocol version off its first byte:
// a v2 handshake opens with v2Magic ≥ 0x80, whereas a legacy v1 request
// opens with a short kind length < 0x80 and gets a readable rejection,
// not interleaved-frame corruption.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.forget(conn)
	r := bufio.NewReader(conn)
	first, err := r.Peek(1)
	if err != nil {
		conn.Close()
		return
	}
	if first[0] == v2Magic {
		s.serveV2(conn, r)
		return
	}
	s.rejectV1(conn, r)
}

// rejectV1 answers a legacy peer's every request with a v1-framed error
// — the one clean thing a v2-only server can say in v1. The connection
// is kept (v1 clients pooled a connection that answered, even with an
// error) and each request on it gets the same readable message, so a
// retrying peer sees "requires wire protocol v2" consistently instead
// of alternating with EOFs from a closed socket.
func (s *Server) rejectV1(conn net.Conn, r *bufio.Reader) {
	defer conn.Close()
	w := bufio.NewWriter(conn)
	msg := fmt.Sprintf("site %s requires wire protocol v2 (this peer speaks v1)", s.site.ID())
	var scratch []byte
	for {
		if _, err := readBytesReuse(r, &scratch); err != nil { // kind
			return
		}
		if _, err := readBytesReuse(r, &scratch); err != nil { // payload
			return
		}
		if writeResponse(w, tcpStatusErr, Response{Payload: []byte(msg)}) != nil {
			return
		}
	}
}

// serveV2 answers the handshake and then demultiplexes: the reader loop
// decodes request frames and hands each to its own handler goroutine
// (bounded per connection); a single writer goroutine serializes the
// response frames in completion order. Close's read-deadline kick stops
// the reader; in-flight handlers then finish, their responses flush,
// and only then does the connection close — the graceful drain.
func (s *Server) serveV2(conn net.Conn, r *bufio.Reader) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		conn.Close()
		return
	}
	w := bufio.NewWriter(conn)
	if hdr[1] != v2Version {
		conn.Write([]byte{v2Magic, v2Reject})
		conn.Close()
		return
	}
	if _, err := conn.Write([]byte{v2Magic, v2Version}); err != nil {
		conn.Close()
		return
	}

	respCh := make(chan []byte, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		broken := false
		for buf := range respCh {
			if broken {
				continue // drain so handlers never block on a dead writer
			}
			if _, err := w.Write(buf); err != nil {
				broken = true
				conn.Close() // unblocks the reader; drain continues
				continue
			}
			if len(respCh) == 0 {
				if err := w.Flush(); err != nil {
					broken = true
					conn.Close()
				}
			}
		}
	}()

	// Delta subscription state. forward runs on the publisher's goroutine
	// (an update handler mid-PushDelta, on any connection): it blocks on
	// respCh rather than drop a delta — the writer goroutine drains the
	// channel even after a write error, so the send always completes —
	// and the closed flag (flipped before respCh closes, under pushMu)
	// makes teardown safe against a concurrent publish.
	var (
		pushMu     sync.Mutex
		pushClosed bool
		cancelSub  func()
	)
	forward := func(payload []byte) {
		pushMu.Lock()
		defer pushMu.Unlock()
		if pushClosed {
			return
		}
		respCh <- appendV2Response(nil, 0, tcpStatusPush, Response{Payload: payload})
	}

	// Per-connection handler concurrency: enough to keep every core busy
	// plus headroom for handlers blocked on waits rather than CPU (peer
	// calls of the recursive algorithms, store I/O) — hence the floor of
	// 64, matching the scheduler's lane budget, even on small hosts.
	// Acquired by the reader, so a flooding peer sees TCP backpressure.
	inflight := 4 * runtime.GOMAXPROCS(0)
	if inflight < 64 {
		inflight = 64
	}
	sem := make(chan struct{}, inflight)
	var handlers sync.WaitGroup
	for {
		id, deadlineMicros, traceID, parentSpan, kind, payload, err := readV2Request(r)
		if err != nil {
			break // EOF, torn frame, or drain kick
		}
		// Delta subscription is a connection-level affair, served by the
		// loop itself (idempotently) — never dispatched to a handler.
		if kind == SubscribeDeltasKind {
			if cancelSub == nil {
				cancelSub = s.site.SubscribeDeltas(forward)
			}
			respCh <- appendV2Response(nil, id, tcpStatusOK, Response{})
			continue
		}
		recv := time.Now()
		// The handler bound is backpressure only: a flooding peer waits
		// on TCP, and dispatch alone decides what to shed.
		sem <- struct{}{}
		handlers.Add(1)
		go func(id, deadlineMicros, traceID, parentSpan uint64, kind string, payload []byte, recv time.Time) {
			defer handlers.Done()
			defer func() { <-sem }()
			// Derive the per-request context from the wire deadline: the
			// relative budget needs no clock sync, and dispatch checks the
			// context before touching the handler, so an already-expired
			// budget does zero evaluation work.
			ctx := context.Background()
			if deadlineMicros > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMicros)*time.Microsecond)
				defer cancel()
			}
			// A traced request gets a fresh per-request collector: the
			// server's spans parent under the caller's wire span IDs and
			// ride back on the response frame. The gap between frame read
			// and this goroutine running is the queue-wait span.
			var col *obs.Collector
			if traceID != 0 {
				col = obs.NewCollector()
				ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: traceID, SpanID: parentSpan, Collector: col})
				col.Add(obs.Span{
					TraceID: traceID, ID: obs.NewSpanID(), Parent: parentSpan,
					Site: string(s.site.id), Name: "queue",
					Start: recv.UnixNano(), Dur: time.Since(recv).Nanoseconds(),
				})
			}
			resp, herr := s.site.dispatch(ctx, Request{Kind: kind, Payload: payload}, true)
			if col != nil {
				resp.Spans = col.Spans()
				s.site.ring.Add(obs.TraceRecord{
					TraceID: traceID, Root: kind, Dur: time.Since(recv), At: recv, Spans: resp.Spans,
				})
			}
			var buf []byte
			switch {
			case herr == nil:
				buf = appendV2Response(nil, id, tcpStatusOK, resp)
			case errors.Is(herr, ErrOverloaded):
				body := appendRetryAfter(nil, RetryAfterHint(herr))
				buf = appendV2Response(nil, id, tcpStatusOverload, Response{Payload: body, Spans: resp.Spans})
			case errors.Is(herr, context.DeadlineExceeded):
				buf = appendV2Response(nil, id, tcpStatusDeadline, Response{Spans: resp.Spans})
			default:
				buf = appendV2Response(nil, id, tcpStatusErr, Response{Payload: []byte(herr.Error()), Spans: resp.Spans})
			}
			respCh <- buf
		}(id, deadlineMicros, traceID, parentSpan, kind, payload, recv)
	}
	// Unsubscribe before closing respCh: cancel stops future publishes
	// from finding the forwarder, and the closed flag stops ones already
	// holding a snapshot of it.
	if cancelSub != nil {
		cancelSub()
	}
	pushMu.Lock()
	pushClosed = true
	pushMu.Unlock()
	handlers.Wait()
	close(respCh)
	<-writerDone
	conn.Close()
}

func writeResponse(w *bufio.Writer, status byte, resp Response) error {
	if err := w.WriteByte(status); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(resp.Steps)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(resp.CacheHits)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(resp.CacheMisses)); err != nil {
		return err
	}
	if err := writeBytes(w, resp.Payload); err != nil {
		return err
	}
	return w.Flush()
}

// ErrRemote wraps handler errors reported by a remote site.
var ErrRemote = errors.New("cluster: remote error")

// TCPTransport implements Transport over real sockets, speaking the
// multiplexed v2 wire protocol: one connection per peer
// carries any number of concurrent requests (single writer goroutine,
// demux reader), so concurrent rounds to the same site pipeline instead
// of queueing on a per-connection lock. Site names map to addresses;
// the coordinator's own site may be registered with Local so that
// from==to calls bypass the network (free local work, as in the
// in-process cluster).
type TCPTransport struct {
	mu     sync.Mutex
	addrs  map[frag.SiteID]string
	muxes  map[frag.SiteID]*muxConn
	locals map[frag.SiteID]*Site
	// peers holds the client-side SiteStats block of every remote site
	// called so far: a reconnect's muxConn carries the same block, so
	// the counts survive a broken connection.
	peers map[frag.SiteID]*obs.SiteStats

	// DialTimeout bounds connection establishment, including the v2
	// handshake (default 5s).
	DialTimeout time.Duration

	metrics *Metrics
}

// NewTCPTransport creates a transport over the given site→address map.
func NewTCPTransport(addrs map[frag.SiteID]string) *TCPTransport {
	cp := make(map[frag.SiteID]string, len(addrs))
	for k, v := range addrs {
		cp[k] = v
	}
	t := &TCPTransport{
		addrs:       cp,
		muxes:       make(map[frag.SiteID]*muxConn),
		locals:      make(map[frag.SiteID]*Site),
		peers:       make(map[frag.SiteID]*obs.SiteStats),
		DialTimeout: 5 * time.Second,
	}
	t.metrics = &Metrics{blocks: func() map[frag.SiteID]*obs.SiteStats {
		t.mu.Lock()
		defer t.mu.Unlock()
		out := make(map[frag.SiteID]*obs.SiteStats, len(t.peers)+len(t.locals))
		for id, st := range t.peers {
			out[id] = st
		}
		// A local site's own block counts every call it dispatched, those
		// its server took over the wire included.
		for id, s := range t.locals {
			out[id] = &s.stats
		}
		return out
	}}
	return t
}

// SetAddrs replaces the site→address map. It exists for the bootstrap
// cycle of multi-site deployments: sites capture the transport at handler
// registration, before the listeners' ports are known.
func (t *TCPTransport) SetAddrs(addrs map[frag.SiteID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs = make(map[frag.SiteID]string, len(addrs))
	for k, v := range addrs {
		t.addrs[k] = v
	}
}

// Local registers an in-process site, served without sockets.
func (t *TCPTransport) Local(site *Site) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.locals[site.ID()] = site
}

// Site returns a locally registered site, satisfying the same lookup
// interface as the in-process cluster (the coordinator reads its own
// fragments through it).
func (t *TCPTransport) Site(id frag.SiteID) (*Site, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.locals[id]
	return s, ok
}

// Metrics returns the live view of the transport's SiteStats blocks:
// the local sites' own and the client-side block of every other peer.
func (t *TCPTransport) Metrics() *Metrics { return t.metrics }

// Close closes all pooled connections; pending calls fail.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	muxes := make([]*muxConn, 0, len(t.muxes))
	for id, c := range t.muxes {
		muxes = append(muxes, c)
		delete(t.muxes, id)
	}
	t.mu.Unlock()
	// Outside the lock: close() fails pending calls, whose completions
	// may call back into the transport (onBroken, metrics).
	for _, c := range muxes {
		c.close()
	}
	return nil
}

func (t *TCPTransport) dial(to frag.SiteID) (net.Conn, error) {
	t.mu.Lock()
	addr, ok := t.addrs[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSite, to)
	}
	conn, err := net.DialTimeout("tcp", addr, t.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s (%s): %w", to, addr, err)
	}
	return conn, nil
}

// muxFor returns the pooled v2 connection to a site, dialing and
// handshaking a fresh one on first use.
func (t *TCPTransport) muxFor(to frag.SiteID) (*muxConn, error) {
	t.mu.Lock()
	if c, ok := t.muxes[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	conn, err := t.dial(to)
	if err != nil {
		return nil, err
	}
	r, err := clientHandshake(conn, t.DialTimeout)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: %s: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.muxes[to]; ok {
		conn.Close() // a concurrent dial won
		return prev, nil
	}
	stats, ok := t.peers[to]
	if !ok {
		stats = new(obs.SiteStats)
		t.peers[to] = stats
	}
	c := newMuxConn(conn, r, to, stats, func(broken *muxConn) { t.dropMux(to, broken) })
	t.muxes[to] = c
	return c, nil
}

func (t *TCPTransport) dropMux(to frag.SiteID, c *muxConn) {
	t.mu.Lock()
	if t.muxes[to] == c {
		delete(t.muxes, to)
	}
	t.mu.Unlock()
}

// Call implements Transport synchronously: a thin wrapper around Go — the
// call shares the peer connection with every other in-flight request.
func (t *TCPTransport) Call(ctx context.Context, from, to frag.SiteID, req Request) (Response, CallCost, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, CallCost{}, err
	}
	t.mu.Lock()
	local, isLocal := t.locals[to]
	t.mu.Unlock()
	if isLocal && from == to {
		cost := CallCost{ReqBytes: len(req.Payload)}
		start := time.Now()
		resp, err := local.dispatch(ctx, req, false)
		cost.Wall = time.Since(start)
		cost.Steps = resp.Steps
		if err != nil {
			return Response{}, cost, err
		}
		cost.RespBytes = len(resp.Payload)
		return resp, cost, nil
	}
	r := <-t.goRemote(ctx, from, to, req)
	return r.Resp, r.Cost, r.Err
}

// Go implements AsyncTransport: the request is pipelined onto the
// peer's multiplexed connection and the reply delivered on the returned
// channel. Calls to local sites run Call in a goroutine instead. The
// first call to a peer may block briefly to dial and handshake its
// connection.
func (t *TCPTransport) Go(ctx context.Context, from, to frag.SiteID, req Request) <-chan Reply {
	t.mu.Lock()
	_, isLocal := t.locals[to]
	t.mu.Unlock()
	if isLocal && from == to {
		return goViaCall(ctx, t, from, to, req)
	}
	if err := ctx.Err(); err != nil {
		ch := make(chan Reply, 1)
		ch <- Reply{Cost: CallCost{ReqBytes: len(req.Payload)}, Err: err}
		return ch
	}
	return t.goRemote(ctx, from, to, req)
}

// SubscribeDeltas implements DeltaSubscriber. For a local site fn is
// registered directly; for a remote one the pooled v2 connection gains a
// push observer and the server is told (idempotently, on that same
// connection) to start forwarding its deltas as push frames. The
// subscription lives and dies with the connection: a broken connection
// silently ends delivery, so resubscribe after transport errors.
func (t *TCPTransport) SubscribeDeltas(ctx context.Context, from, to frag.SiteID, fn func([]byte)) (func(), error) {
	t.mu.Lock()
	local, isLocal := t.locals[to]
	t.mu.Unlock()
	if isLocal {
		return local.SubscribeDeltas(fn), nil
	}
	c, err := t.muxFor(to)
	if err != nil {
		return nil, err
	}
	cancel := c.subscribePush(fn)
	// Subscribe on this exact connection — the observer is tied to it.
	done := make(chan error, 1)
	c.send(ctx, SubscribeDeltasKind, nil, 0, 0, func(_ Response, err error) { done <- err })
	if err := <-done; err != nil {
		cancel()
		return nil, err
	}
	return cancel, nil
}

// goRemote issues one v2 call: register, enqueue, and complete with
// accounting from whichever of response / context expiry / connection
// failure happens first.
func (t *TCPTransport) goRemote(ctx context.Context, from, to frag.SiteID, req Request) <-chan Reply {
	ch := make(chan Reply, 1)
	cost := CallCost{ReqBytes: len(req.Payload)}
	c, err := t.muxFor(to)
	if err != nil {
		ch <- Reply{Cost: cost, Err: err}
		return ch
	}
	// A traced call carries its trace ID and a fresh RPC span ID on the
	// wire; the server's spans come back on the response frame and merge
	// into the caller's collector under that span.
	var traceID, parentSpan uint64
	tc, traced := obs.FromContext(ctx)
	var rpcSpan obs.Span
	if traced {
		rpcSpan = obs.Span{
			TraceID: tc.TraceID, ID: obs.NewSpanID(), Parent: tc.SpanID,
			Site: string(to), Name: "rpc " + req.Kind,
		}
		traceID, parentSpan = tc.TraceID, rpcSpan.ID
	}
	start := time.Now()
	c.send(ctx, req.Kind, req.Payload, traceID, parentSpan, func(resp Response, err error) {
		cost.Wall = time.Since(start)
		if err == nil {
			cost.RespBytes = len(resp.Payload)
		}
		if traced {
			rpcSpan.Start = start.UnixNano()
			rpcSpan.Dur = cost.Wall.Nanoseconds()
			rpcSpan.Attrs = bytesAttrs(cost)
			tc.Collector.Add(rpcSpan)
			tc.Collector.Add(resp.Spans...)
		}
		// The peer's client-side block counts what this side saw: a
		// successful call's traffic and work, or the failure by kind —
		// typed overload/deadline responses included, since the
		// coordinator's view is what the operator (and the smoke tests)
		// can actually see. Latency stays with the callee's own block and
		// the serving tier's health tracker. Control kinds stay outside
		// the ledger here as they do at the callee.
		st, ledger := c.stats, ClassOf(req.Kind) != Control
		if err != nil {
			var de *DeadlineError
			switch {
			case !ledger:
			case errors.Is(err, ErrOverloaded):
				st.Sheds.Add(1)
			case errors.As(err, &de):
				st.DeadlineExpired.Add(1)
			default:
				st.Errors.Add(1)
			}
			ch <- Reply{Cost: cost, Err: err}
			return
		}
		if ledger {
			st.Visits.Add(1)
			st.MessagesIn.Add(1)
			st.BytesIn.Add(uint64(cost.ReqBytes))
			st.MessagesOut.Add(1)
			st.BytesOut.Add(uint64(cost.RespBytes))
			st.Steps.Add(uint64(resp.Steps))
			st.CacheHits.Add(uint64(resp.CacheHits))
			st.CacheMisses.Add(uint64(resp.CacheMisses))
		}
		cost.Steps = resp.Steps
		cost.Net = cost.Wall // real network: measured, not modeled
		ch <- Reply{Resp: resp, Cost: cost}
	})
	return ch
}
