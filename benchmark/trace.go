package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/frag"
)

// The traced pass records spans from here, around calls into each layer's
// public functions; nothing inside the program is instrumented. One client
// runs one op at a time, so every span recorded between an op's start and
// its end belongs to that op.

// span is one recorded interval. Times are nanoseconds since the recorder
// was created. Parent is the ID of the span that caused this one, 0 for an
// op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Site   string `json:"site,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. While off, the
// wrappers below pass calls straight through.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu       sync.Mutex
	spans    []span
	op       int                 // the op in progress
	root     int                 // its root span
	openCall map[frag.SiteID]int // the open transport call per callee
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), openCall: map[frag.SiteID]int{}}
}

func (r *recorder) begin(name string, parent int, site frag.SiteID) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Site: string(site), Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// beginOp opens the root span of the next op and makes it current.
func (r *recorder) beginOp(name string) int {
	r.mu.Lock()
	r.op++
	r.mu.Unlock()
	id := r.begin(name, 0, "")
	r.mu.Lock()
	r.root = id
	r.mu.Unlock()
	return id
}

// opSpans returns the spans of one op: its root and everything under it.
func (r *recorder) opSpans(root int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.spans[root-1].Op
	var out []span
	for _, s := range r.spans[root-1:] {
		if s.Op != op {
			break
		}
		out = append(out, s)
	}
	return out
}

// spanTransport records one "call" span per transport call under the
// current op's root span.
type spanTransport struct {
	inner cluster.Transport
	rec   *recorder
}

func (t *spanTransport) Call(ctx context.Context, from, to frag.SiteID, req cluster.Request) (cluster.Response, cluster.CallCost, error) {
	if !t.rec.on.Load() {
		return t.inner.Call(ctx, from, to, req)
	}
	t.rec.mu.Lock()
	root := t.rec.root
	t.rec.mu.Unlock()
	id := t.rec.begin("call "+req.Kind, root, to)
	t.rec.mu.Lock()
	t.rec.openCall[to] = id
	t.rec.mu.Unlock()
	resp, cost, err := t.inner.Call(ctx, from, to, req)
	t.rec.end(id)
	return resp, cost, err
}

// wrapHandlers re-registers the site's handlers of the given kinds behind
// a span recorder. The handler span's parent is the open call to that
// site: contexts do not cross a socket, the single client makes the
// attribution unambiguous.
func wrapHandlers(site *cluster.Site, rec *recorder, kinds ...string) {
	for _, kind := range kinds {
		inner, ok := site.HandlerFor(kind)
		if !ok {
			continue
		}
		kind := kind
		site.Handle(kind, func(ctx context.Context, s *cluster.Site, req cluster.Request) (cluster.Response, error) {
			if !rec.on.Load() {
				return inner(ctx, s, req)
			}
			rec.mu.Lock()
			parent := rec.openCall[s.ID()]
			rec.mu.Unlock()
			id := rec.begin("handle "+kind, parent, s.ID())
			resp, err := inner(ctx, s, req)
			rec.end(id)
			return resp, err
		})
	}
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// folded is one op's span tree reduced to the numbers the per-layer
// metrics are medians of.
type folded struct {
	root, rootSelf   time.Duration
	calls            []time.Duration
	callSelf         []time.Duration // call − the handler it caused
	handlers         []time.Duration
	handlerSites     []string // aligned with handlers
	slowestCallShare float64
}

// fold reduces one op's spans. Self time is a span's duration minus the
// part of it its children cover.
func fold(spans []span) folded {
	root := spans[0]
	f := folded{root: root.dur()}
	var calls []span
	handlerOf := map[int]span{}
	for _, s := range spans[1:] {
		switch {
		case s.Parent == root.ID:
			calls = append(calls, s)
		default:
			handlerOf[s.Parent] = s
		}
	}
	f.rootSelf = root.dur() - covered(root, calls)
	var slowest time.Duration
	for _, c := range calls {
		f.calls = append(f.calls, c.dur())
		if c.dur() > slowest {
			slowest = c.dur()
		}
		if h, ok := handlerOf[c.ID]; ok {
			f.handlers = append(f.handlers, h.dur())
			f.handlerSites = append(f.handlerSites, h.Site)
			f.callSelf = append(f.callSelf, c.dur()-covered(c, []span{h}))
		}
	}
	if root.dur() > 0 {
		f.slowestCallShare = float64(slowest) / float64(root.dur())
	}
	return f
}
