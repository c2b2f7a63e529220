package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// Message kinds of the serving tier.
const (
	// KindProbe is the health probe: an (almost) empty round trip whose
	// only point is that it exercises the same transport path queries
	// use.
	KindProbe = "serve.probe"
	// KindCloneFragment asks a site for an encoded copy of one fragment
	// (the rebalancer's read side).
	KindCloneFragment = "serve.cloneFragment"
	// KindInstallFragment installs a shipped fragment replica at a site
	// (journaled through the durable store and version-bumped by
	// Site.AddFragment, so stale cached triplets cannot survive).
	KindInstallFragment = "serve.installFragment"
)

// ErrBadServeMessage is wrapped by the tier's decoders.
var ErrBadServeMessage = errors.New("serve: bad message")

// RegisterHandlers installs the tier's site-side handlers. Every
// replica site of a failover deployment needs them (the daemon and the
// facade both call this during setup). The tier's control plane is
// exempt from admission control: a saturated site must still answer
// probes (shedding them would read as the site dying, amplifying the
// overload onto its siblings) and still accept rebalancer traffic.
func RegisterHandlers(site *cluster.Site) {
	site.Handle(KindProbe, handleProbe)
	site.Handle(KindCloneFragment, handleCloneFragment)
	site.Handle(KindInstallFragment, handleInstallFragment)
	site.ExemptFromAdmission(KindProbe, KindCloneFragment, KindInstallFragment)
}

func handleProbe(_ context.Context, site *cluster.Site, _ cluster.Request) (cluster.Response, error) {
	return cluster.Response{Payload: []byte(site.ID())}, nil
}

func handleCloneFragment(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	id, err := decodeFragIDReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	fr, ok := site.Fragment(id)
	if !ok {
		return cluster.Response{}, fmt.Errorf("serve: site %s does not store fragment %d", site.ID(), id)
	}
	return cluster.Response{Payload: appendFragment(nil, fr.Parent, fr.Root)}, nil
}

func handleInstallFragment(_ context.Context, site *cluster.Site, req cluster.Request) (cluster.Response, error) {
	id, parent, root, err := decodeInstallReq(req.Payload)
	if err != nil {
		return cluster.Response{}, err
	}
	site.AddFragment(&frag.Fragment{ID: id, Parent: parent, Root: root})
	return cluster.Response{}, nil
}

func encodeFragIDReq(id xmltree.FragmentID) []byte {
	return xmltree.AppendFragmentID(nil, id)
}

func decodeFragIDReq(buf []byte) (xmltree.FragmentID, error) {
	r := wire.NewReader(buf, ErrBadServeMessage)
	id := xmltree.ReadFragmentID(&r)
	return id, r.Done()
}

// appendFragment appends a fragment's parent (a signed varint: the root's
// is -1) and its tree, which runs unframed to the end of the payload. It
// is the whole clone response and the tail of an install request.
func appendFragment(dst []byte, parent xmltree.FragmentID, root *xmltree.Node) []byte {
	dst = binary.AppendVarint(dst, int64(int32(parent)))
	return xmltree.AppendEncoded(dst, root)
}

func readFragment(r *wire.Reader) (parent xmltree.FragmentID, root *xmltree.Node, err error) {
	parent = xmltree.FragmentID(int32(r.Varint()))
	tree := r.Rest()
	if err := r.Done(); err != nil {
		return 0, nil, err
	}
	root, err = xmltree.Decode(tree)
	return parent, root, err
}

func encodeInstallReq(id, parent xmltree.FragmentID, root *xmltree.Node) []byte {
	return appendFragment(xmltree.AppendFragmentID(nil, id), parent, root)
}

func decodeInstallReq(buf []byte) (id, parent xmltree.FragmentID, root *xmltree.Node, err error) {
	r := wire.NewReader(buf, ErrBadServeMessage)
	id = xmltree.ReadFragmentID(&r)
	parent, root, err = readFragment(&r)
	return id, parent, root, err
}

func decodeCloneResp(buf []byte) (parent xmltree.FragmentID, root *xmltree.Node, err error) {
	r := wire.NewReader(buf, ErrBadServeMessage)
	return readFragment(&r)
}

// Recheck implements core.Tier: a synchronous probe sweep, used by the
// engine between round-level retries and by ProbeNow-driven callers
// after scripted outages.
func (t *Tier) Recheck(ctx context.Context) { t.ProbeNow(ctx) }

// ProbeNow probes every site of the replica map once, concurrently, and
// feeds the outcomes through the health state machine. The coordinator
// itself is skipped: its calls are local and cannot fail at the
// transport. Explicit sweeps always probe everything — the per-site
// backoff schedule only thins the background prober (probeSweep) — but
// their outcomes still feed it, so a revived site found by Recheck
// returns to full-rate background probing immediately.
func (t *Tier) ProbeNow(ctx context.Context) { t.sweep(ctx, false) }

// probeSweep is the background prober's pass: like ProbeNow, except
// sites whose probes keep failing are re-probed at exponentially
// backed-off (jittered) intervals instead of every tick — a dead site
// does not deserve a full-rate probe stream while it is down.
func (t *Tier) probeSweep(ctx context.Context) { t.sweep(ctx, true) }

func (t *Tier) sweep(ctx context.Context, honorSchedule bool) {
	sites := t.sites()
	now := time.Now()
	due := sites[:0:0]
	t.probeMu.Lock()
	for _, site := range sites {
		if site == t.coord {
			continue
		}
		if honorSchedule {
			if sc := t.probeSched[site]; sc != nil && now.Before(sc.next) {
				continue
			}
		}
		due = append(due, site)
	}
	t.probeMu.Unlock()
	done := make(chan struct{}, len(due))
	for _, site := range due {
		go func(site frag.SiteID) {
			defer func() { done <- struct{}{} }()
			if evidence, err := t.probeOne(ctx, site); evidence {
				t.reschedule(site, err)
			}
		}(site)
	}
	for range due {
		<-done
	}
}

// probeSchedule is one failing site's backed-off background probing
// state.
type probeSchedule struct {
	bo   *backoff.Retry
	next time.Time
}

// reschedule updates a site's background probing cadence from a probe
// outcome: failures push the next probe out (exponential, jittered,
// capped); a success clears the schedule back to every-tick.
func (t *Tier) reschedule(site frag.SiteID, err error) {
	t.probeMu.Lock()
	defer t.probeMu.Unlock()
	if err == nil {
		delete(t.probeSched, site)
		return
	}
	sc := t.probeSched[site]
	if sc == nil {
		if t.probeSched == nil {
			t.probeSched = make(map[frag.SiteID]*probeSchedule)
		}
		sc = &probeSchedule{bo: backoff.New(backoff.Policy{
			Base:   t.opt.ProbeInterval,
			Max:    16 * t.opt.ProbeInterval,
			Budget: -1, // probing never gives up; it just slows down
		})}
		t.probeSched[site] = sc
	}
	d, _ := sc.bo.Next(0)
	sc.next = time.Now().Add(d)
}

// probeOne probes a single site and feeds the health state machine.
// evidence is false when the outcome says nothing about the site (the
// caller abandoned the sweep).
func (t *Tier) probeOne(ctx context.Context, site frag.SiteID) (evidence bool, err error) {
	pctx, cancel := context.WithTimeout(ctx, t.opt.ProbeTimeout)
	defer cancel()
	start := time.Now()
	_, _, err = t.tr.Call(pctx, t.coord, site, cluster.Request{Kind: KindProbe})
	rtt := time.Since(start)
	t.probes.Add(1)
	if err != nil {
		// The caller abandoning the sweep is not evidence about the site.
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			return false, err
		}
		t.probeFails.Add(1)
		t.health.result(site, rtt, err)
		return true, err
	}
	t.health.result(site, rtt, nil)
	return true, nil
}
