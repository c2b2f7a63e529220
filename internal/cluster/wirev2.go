package cluster

// Wire protocol v2: the multiplexed, pipelined framing the TCP transport
// speaks. Where the retired v1 held a connection exclusively for one
// request/response round trip (head-of-line blocking every concurrent
// caller to the same site), v2 tags every frame with a varint request ID
// so unlimited requests are in flight per connection and responses
// return in whatever order the site finishes them.
//
// Handshake (once per connection, client first):
//
//	client → server: [v2Magic, version]
//	server → client: [v2Magic, version]  (accept)
//	                 [v2Magic, 0]        (reject: unsupported version)
//
// v2Magic (0xB2) is unambiguous against v1 traffic: a v1 request begins
// with the uvarint length of its kind string, and kinds are short ASCII
// names, so a v1 first byte is always < 0x80. A server therefore sniffs
// the first byte and rejects a v1 peer cleanly, in v1 framing
// (Server.rejectV1).
//
// Frames after the handshake:
//
//	request:  uvarint id, uvarint deadline budget (µs, 0 = none),
//	          uvarint trace ID (0 = tracing off; when non-zero a
//	          uvarint parent span ID follows),
//	          uvarint kind length, kind,
//	          uvarint payload length, payload
//	response: uvarint id, one status byte (0 ok, 1 error, 2 deadline
//	          expired, 3 overloaded), uvarint steps,
//	          uvarint cache hits, uvarint cache misses,
//	          uvarint span block length, span block (obs.EncodeSpans;
//	          empty for untraced requests),
//	          uvarint body length, body (payload, error text, or for
//	          status 3 a uvarint retry-after hint in µs)
//
// The deadline field propagates the caller's remaining budget to the
// server as a RELATIVE duration (relative budgets need no clock
// synchronization between peers): the server derives a per-request
// context from it, aborts evaluation when it expires, and answers
// status 2 instead of silently finishing work nobody is waiting for.
// Status 3 is admission control shedding the request with a typed
// retryable error carrying the server's retry-after hint.
//
// Cancellation is per request: a caller whose context expires gets its
// error immediately and its request ID is abandoned — the connection is
// never torn down and the late response, when it eventually arrives, is
// discarded by the demultiplexer. Only a connection-level I/O error
// fails the connection, and then every pending call fails with it.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/frag"
	"repro/internal/obs"
)

const (
	// v2Magic opens every v2 handshake byte pair. Deliberately ≥ 0x80 so
	// it can never be mistaken for a v1 kind-length byte.
	v2Magic byte = 0xB2
	// v2Version is the protocol version this build speaks. Version 3
	// added the optional trace-context fields on requests and the span
	// block on responses; version 4 added server-initiated push frames
	// (tcpStatusPush, request ID 0) for maintenance-delta subscriptions.
	// The handshake requires an exact match, so version-skewed binaries
	// fail loudly instead of misparsing frames.
	v2Version byte = 4
	// v2Reject is the version byte of a rejection reply.
	v2Reject byte = 0
	// maxKind bounds accepted request kind strings; real kinds are short
	// dotted names ("parbox.evalQual").
	maxKind = 1 << 10
	// maxDeadlineMicros bounds the deadline budget a frame may carry
	// (≈1h in µs): an absurd — corrupt or hostile — value must not arm an
	// effectively-infinite server timer. Encoder and decoder both clamp,
	// so decode ∘ encode is the identity on every frame this build emits.
	maxDeadlineMicros = uint64(time.Hour / time.Microsecond)
)

// ErrProtocolVersion marks handshake failures: the peer does not speak
// wire protocol v2 (or speaks a version this build does not).
var ErrProtocolVersion = errors.New("cluster: wire protocol version mismatch")

// --- frame codecs ----------------------------------------------------------

// appendV2Request appends one encoded v2 request frame. deadlineMicros
// is the caller's remaining budget in microseconds (0 = no deadline),
// clamped to maxDeadlineMicros. traceID 0 means tracing off and adds a
// single zero byte; a non-zero traceID is followed by the parent span
// ID so the server can attach its spans under the caller's RPC span.
func appendV2Request(dst []byte, id, deadlineMicros, traceID, parentSpan uint64, kind string, payload []byte) []byte {
	if deadlineMicros > maxDeadlineMicros {
		deadlineMicros = maxDeadlineMicros
	}
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, deadlineMicros)
	dst = binary.AppendUvarint(dst, traceID)
	if traceID != 0 {
		dst = binary.AppendUvarint(dst, parentSpan)
	}
	dst = binary.AppendUvarint(dst, uint64(len(kind)))
	dst = append(dst, kind...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// readV2Request reads one request frame. kind and payload are freshly
// allocated: handlers run concurrently with the reader, so frames cannot
// share a connection-scoped scratch buffer.
// deadlineMicros is clamped like the encoder clamps it.
func readV2Request(r *bufio.Reader) (id, deadlineMicros, traceID, parentSpan uint64, kind string, payload []byte, err error) {
	if id, err = binary.ReadUvarint(r); err != nil {
		return 0, 0, 0, 0, "", nil, err
	}
	if deadlineMicros, err = binary.ReadUvarint(r); err != nil {
		return 0, 0, 0, 0, "", nil, err
	}
	if deadlineMicros > maxDeadlineMicros {
		deadlineMicros = maxDeadlineMicros
	}
	if traceID, err = binary.ReadUvarint(r); err != nil {
		return 0, 0, 0, 0, "", nil, err
	}
	if traceID != 0 {
		if parentSpan, err = binary.ReadUvarint(r); err != nil {
			return 0, 0, 0, 0, "", nil, err
		}
	}
	kn, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, 0, 0, "", nil, err
	}
	if kn > maxKind {
		return 0, 0, 0, 0, "", nil, fmt.Errorf("%w (kind %d bytes)", errFrameTooBig, kn)
	}
	kb := make([]byte, kn)
	if _, err = io.ReadFull(r, kb); err != nil {
		return 0, 0, 0, 0, "", nil, err
	}
	pn, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, 0, 0, "", nil, err
	}
	if pn > maxFrame {
		return 0, 0, 0, 0, "", nil, errFrameTooBig
	}
	payload = make([]byte, pn)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, 0, "", nil, err
	}
	return id, deadlineMicros, traceID, parentSpan, string(kb), payload, nil
}

// appendV2Response appends one encoded v2 response frame. The span
// block piggybacks the server-side spans of a traced request; for the
// (overwhelmingly common) untraced case it is a single zero byte.
func appendV2Response(dst []byte, id uint64, status byte, resp Response) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = append(dst, status)
	dst = binary.AppendUvarint(dst, uint64(resp.Steps))
	dst = binary.AppendUvarint(dst, uint64(resp.CacheHits))
	dst = binary.AppendUvarint(dst, uint64(resp.CacheMisses))
	if len(resp.Spans) == 0 {
		dst = binary.AppendUvarint(dst, 0) // one zero byte when untraced
	} else {
		spanBlock := obs.EncodeSpans(nil, resp.Spans)
		dst = binary.AppendUvarint(dst, uint64(len(spanBlock)))
		dst = append(dst, spanBlock...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Payload)))
	return append(dst, resp.Payload...)
}

// readV2Response reads one response frame. The body is freshly
// allocated: responses demultiplex to concurrent callers that own their
// payloads.
func readV2Response(r *bufio.Reader) (id uint64, status byte, resp Response, err error) {
	if id, err = binary.ReadUvarint(r); err != nil {
		return 0, 0, Response{}, err
	}
	if status, err = r.ReadByte(); err != nil {
		return 0, 0, Response{}, err
	}
	steps, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, Response{}, err
	}
	hits, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, Response{}, err
	}
	misses, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, Response{}, err
	}
	sn, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, Response{}, err
	}
	if sn > maxFrame {
		return 0, 0, Response{}, errFrameTooBig
	}
	var spans []obs.Span
	if sn > 0 {
		sb := make([]byte, sn)
		if _, err = io.ReadFull(r, sb); err != nil {
			return 0, 0, Response{}, err
		}
		var used int
		spans, used, err = obs.DecodeSpans(sb)
		if err != nil {
			return 0, 0, Response{}, err
		}
		if used != len(sb) {
			return 0, 0, Response{}, errors.New("cluster: span block has trailing bytes")
		}
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, Response{}, err
	}
	if n > maxFrame {
		return 0, 0, Response{}, errFrameTooBig
	}
	body := make([]byte, n)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, Response{}, err
	}
	resp = Response{Payload: body, Steps: int64(steps), CacheHits: int64(hits), CacheMisses: int64(misses), Spans: spans}
	return id, status, resp, nil
}

// --- client: multiplexed connection ---------------------------------------

// muxConn is one multiplexed v2 connection. A single writer goroutine
// owns the socket's write side (requests from any number of callers
// funnel through wr), a demux reader goroutine owns the read side and
// matches responses to pending calls by request ID. A per-call context
// that expires resolves only that call; the connection survives. A
// connection-level I/O error fails every pending call, closes the
// socket and reports the conn broken to its owner.
type muxConn struct {
	conn net.Conn
	// peer identifies the site this connection serves; typed shed and
	// deadline errors name it. stats is the client-side SiteStats block
	// of that peer (owned by the transport, shared across reconnects):
	// the callee's own block lives in another process.
	peer  frag.SiteID
	stats *obs.SiteStats

	wr     chan []byte   // encoded request frames for the writer goroutine
	broken chan struct{} // closed once the conn has failed

	// onBroken, set by the owning transport, removes the conn from its
	// pool; called exactly once, before pending calls are failed.
	onBroken func(*muxConn)

	mu      sync.Mutex
	pending map[uint64]*muxPending
	nextID  uint64
	err     error // sticky connection failure

	// pushSubs are the connection's push-frame observers: every
	// tcpStatusPush body fans out to each. Request IDs start at 1, so a
	// push frame (ID 0) can never race a pending call.
	pushMu   sync.Mutex
	pushSubs map[uint64]func([]byte)
	pushNext uint64
}

// muxPending is one in-flight call: its completion callback (invoked
// exactly once, from whichever of response arrival / context expiry /
// connection failure happens first) and the stop handle of its context
// watcher.
type muxPending struct {
	complete func(Response, error)
	stop     func() bool
}

// newMuxConn wraps an already-handshaken connection and starts its
// writer and reader goroutines.
func newMuxConn(conn net.Conn, r *bufio.Reader, peer frag.SiteID, stats *obs.SiteStats, onBroken func(*muxConn)) *muxConn {
	c := &muxConn{
		conn:     conn,
		peer:     peer,
		stats:    stats,
		wr:       make(chan []byte, 16),
		broken:   make(chan struct{}),
		onBroken: onBroken,
		pending:  make(map[uint64]*muxPending),
	}
	go c.writeLoop()
	go c.readLoop(r)
	return c
}

func (c *muxConn) writeLoop() {
	w := bufio.NewWriter(c.conn)
	for {
		select {
		case buf := <-c.wr:
			if _, err := w.Write(buf); err != nil {
				c.fail(err)
				return
			}
			// Flush only once the queue is momentarily empty: a burst of
			// pipelined requests coalesces into few syscalls.
			if len(c.wr) == 0 {
				if err := w.Flush(); err != nil {
					c.fail(err)
					return
				}
			}
		case <-c.broken:
			return
		}
	}
}

func (c *muxConn) readLoop(r *bufio.Reader) {
	for {
		id, status, resp, err := readV2Response(r)
		if err != nil {
			c.fail(err)
			return
		}
		// Server-initiated push frames are not replies: route them to the
		// push observers and never to a pending call.
		if status == tcpStatusPush {
			c.deliverPush(resp.Payload)
			continue
		}
		// Error statuses keep any piggybacked spans: a traced request
		// that was shed or expired still shows its server-side spans.
		switch status {
		case tcpStatusErr:
			c.finish(id, Response{Spans: resp.Spans}, fmt.Errorf("%w: %s", ErrRemote, resp.Payload))
		case tcpStatusDeadline:
			c.finish(id, Response{Spans: resp.Spans}, &DeadlineError{Site: c.peer})
		case tcpStatusOverload:
			c.finish(id, Response{Spans: resp.Spans}, &OverloadError{Site: c.peer, RetryAfter: decodeRetryAfter(resp.Payload)})
		default:
			c.finish(id, resp, nil)
		}
	}
}

// subscribePush registers fn to receive every push-frame body arriving
// on this connection and returns a cancel function. Delivery runs on the
// connection's reader goroutine — fn must be cheap and non-blocking.
func (c *muxConn) subscribePush(fn func([]byte)) (cancel func()) {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	if c.pushSubs == nil {
		c.pushSubs = make(map[uint64]func([]byte))
	}
	id := c.pushNext
	c.pushNext++
	c.pushSubs[id] = fn
	return func() {
		c.pushMu.Lock()
		defer c.pushMu.Unlock()
		delete(c.pushSubs, id)
	}
}

func (c *muxConn) deliverPush(payload []byte) {
	c.pushMu.Lock()
	fns := make([]func([]byte), 0, len(c.pushSubs))
	for _, fn := range c.pushSubs {
		fns = append(fns, fn)
	}
	c.pushMu.Unlock()
	for _, fn := range fns {
		fn(payload)
	}
}

// send registers a new call and enqueues its frame. complete is invoked
// exactly once with the outcome; ctx expiry resolves only this call.
// traceID/parentSpan propagate the caller's trace context to the server
// (0 trace ID = tracing off, costing one zero byte on the wire).
func (c *muxConn) send(ctx context.Context, kind string, payload []byte, traceID, parentSpan uint64, complete func(Response, error)) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		complete(Response{}, err)
		return
	}
	c.nextID++
	id := c.nextID
	p := &muxPending{complete: complete}
	c.pending[id] = p
	c.mu.Unlock()

	// Watch the caller's context. finish() reads p.stop under c.mu, so
	// publish it there; if the call already resolved (response or conn
	// failure raced in), stop the watcher ourselves.
	stop := context.AfterFunc(ctx, func() {
		c.finish(id, Response{}, context.Cause(ctx))
	})
	c.mu.Lock()
	if cur, ok := c.pending[id]; ok && cur == p {
		p.stop = stop
		c.mu.Unlock()
	} else {
		c.mu.Unlock()
		stop()
	}

	// Propagate the caller's remaining budget as a relative deadline. A
	// deadline that has already passed still encodes as 1µs, not 0 (the
	// no-deadline sentinel): the race belongs to the server, which answers
	// status 2 without dispatching.
	var deadlineMicros uint64
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl) / time.Microsecond
		if rem < 1 {
			rem = 1
		}
		deadlineMicros = uint64(rem)
	}
	frame := appendV2Request(make([]byte, 0, 44+len(kind)+len(payload)), id, deadlineMicros, traceID, parentSpan, kind, payload)
	select {
	case c.wr <- frame:
	case <-c.broken:
		// The writer is gone; fail() already resolved (or will resolve)
		// every pending call, including this one.
	case <-ctx.Done():
		// The peer socket has stalled long enough to fill the write
		// queue and this caller's context fired while waiting to
		// enqueue. Resolve this call now — finish() dedupes against the
		// AfterFunc watcher — so a per-request deadline bounds the call
		// even when the frame never made it onto the wire.
		c.finish(id, Response{}, context.Cause(ctx))
	}
}

// finish resolves call id exactly once; late or unknown ids (abandoned
// by context expiry) are dropped silently.
func (c *muxConn) finish(id uint64, resp Response, err error) {
	c.mu.Lock()
	p, ok := c.pending[id]
	var stop func() bool
	if ok {
		delete(c.pending, id)
		stop = p.stop
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	if stop != nil {
		stop()
	}
	p.complete(resp, err)
}

// fail marks the connection broken: every pending call resolves with
// err, the socket closes, and the owner drops the conn from its pool.
func (c *muxConn) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = fmt.Errorf("cluster: connection failed: %w", err)
	failErr := c.err
	pend := c.pending
	c.pending = make(map[uint64]*muxPending)
	close(c.broken)
	c.mu.Unlock()
	c.conn.Close()
	if c.onBroken != nil {
		c.onBroken(c)
	}
	for _, p := range pend {
		if p.stop != nil {
			p.stop()
		}
		p.complete(Response{}, failErr)
	}
}

// close tears the connection down (transport Close): pending calls fail.
func (c *muxConn) close() {
	c.fail(errors.New("transport closed"))
}

// clientHandshake performs the v2 handshake on a fresh connection,
// bounded by timeout. The returned reader may hold buffered bytes and
// must be the one the reader loop consumes.
func clientHandshake(conn net.Conn, timeout time.Duration) (*bufio.Reader, error) {
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	}
	if _, err := conn.Write([]byte{v2Magic, v2Version}); err != nil {
		return nil, fmt.Errorf("%w: sending handshake: %v", ErrProtocolVersion, err)
	}
	r := bufio.NewReader(conn)
	var reply [2]byte
	if _, err := io.ReadFull(r, reply[:]); err != nil {
		return nil, fmt.Errorf("%w: peer closed during handshake (v1 peer?): %v", ErrProtocolVersion, err)
	}
	if reply[0] != v2Magic || reply[1] != v2Version {
		return nil, fmt.Errorf("%w: peer answered [%#x %#x], want [%#x %#x]",
			ErrProtocolVersion, reply[0], reply[1], v2Magic, v2Version)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	return r, nil
}
