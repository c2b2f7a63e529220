package parbox

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/boolexpr"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/views"
)

// subRecv reads one notification with a timeout.
func subRecv(t *testing.T, sub *Subscription) Notification {
	t.Helper()
	select {
	case n, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription channel closed")
		}
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no notification within 5s")
	}
	panic("unreachable")
}

// TestSubscribePushesFlips: a standing subscription's answer follows
// content updates through pushed deltas alone — no polling Exec calls —
// and two subscribers of one query share state and both hear the flips.
func TestSubscribePushesFlips(t *testing.T) {
	doc := NewElement("r", "", NewElement("a", ""))
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1"}, WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	q := MustPrepare(`//b`)
	sub, err := sys.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Answer() {
		t.Fatal("baseline answer true, want false (no <b> yet)")
	}
	// A second subscriber of the same query rides the same solver state.
	sub2, err := sys.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	viewRes, err := sys.Exec(ctx, q, WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	view := viewRes.View
	// Insert a <b> into fragment 1: the site's standing program flips and
	// pushes; both subscribers are notified without any further calls.
	if _, err := view.Update(ctx, 1, []UpdateOp{{Op: OpInsert, Label: "b"}}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Subscription{sub, sub2} {
		n := subRecv(t, s)
		if !n.Flipped || !n.Answer {
			t.Fatalf("insert notification = %+v, want Flipped && Answer", n)
		}
		if n.Frag != 1 {
			t.Fatalf("notification names fragment %d, want 1", n.Frag)
		}
	}
	if !sub.Answer() || !sub2.Answer() {
		t.Fatal("answers not true after flip")
	}

	// Delete it again: the answer flips back.
	if _, err := view.Update(ctx, 1, []UpdateOp{{Op: OpDelete, Path: []int{0}}}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Subscription{sub, sub2} {
		n := subRecv(t, s)
		if !n.Flipped || n.Answer {
			t.Fatalf("delete notification = %+v, want Flipped && !Answer", n)
		}
	}

	// Cancel closes Done; the survivor keeps hearing flips.
	sub2.Cancel()
	select {
	case <-sub2.Done():
	default:
		t.Fatal("cancelled subscription's Done still open")
	}
	if _, err := view.Update(ctx, 1, []UpdateOp{{Op: OpInsert, Label: "b"}}); err != nil {
		t.Fatal(err)
	}
	if n := subRecv(t, sub); !n.Flipped || !n.Answer {
		t.Fatalf("post-cancel notification = %+v, want Flipped && Answer", n)
	}
	select {
	case n := <-sub2.C():
		t.Fatalf("cancelled subscription received %+v", n)
	default:
	}
}

// TestSubscribeBaselineTrue: the registration baseline solves the
// initial answer without an Exec round.
func TestSubscribeBaselineTrue(t *testing.T) {
	doc := NewElement("r", "", NewElement("a", "", NewElement("b", "hi")))
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sub, err := sys.Subscribe(context.Background(), MustPrepare(`//b[text() = "hi"]`))
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Answer() {
		t.Fatal("baseline answer false, want true")
	}
	sub.Cancel()
}

// TestSubscribeAgainstOracle: a stream of randomized updates, with every
// subscription answer checked against a freshly executed query after
// each settled notification batch — the polled oracle the pushed path
// must match.
func TestSubscribeAgainstOracle(t *testing.T) {
	doc := NewElement("r", "",
		NewElement("a", ""),
		NewElement("c", ""),
	)
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := forest.Split(doc.Children[1]); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1", 2: "S2"}, WithTripletCache())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	queries := []*Prepared{
		MustPrepare(`//b`),
		MustPrepare(`//a[b/text() = "x"]`),
		MustPrepare(`//c && //b`),
	}
	subs := make([]*Subscription, len(queries))
	for i, q := range queries {
		s, err := sys.Subscribe(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
		// Drain in the background: this test polls Answer(), the oracle,
		// not the notification stream.
		go func(s *Subscription) {
			for {
				select {
				case <-s.C():
				case <-s.Done():
					return
				}
			}
		}(s)
	}
	viewRes, err := sys.Exec(ctx, MustPrepare(`//r`), WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	view := viewRes.View

	steps := []struct {
		frag FragmentID
		ops  []UpdateOp
	}{
		{1, []UpdateOp{{Op: OpInsert, Label: "b", Text: "x"}}},
		{2, []UpdateOp{{Op: OpInsert, Label: "b"}}},
		{1, []UpdateOp{{Op: OpSetText, Path: []int{0}, Text: "y"}}},
		{1, []UpdateOp{{Op: OpDelete, Path: []int{0}}}},
		{2, []UpdateOp{{Op: OpDelete, Path: []int{0}}}},
	}
	for i, step := range steps {
		if _, err := view.Update(ctx, step.frag, step.ops); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for j, q := range queries {
			want, err := sys.Exec(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			// The push is asynchronous; wait for the subscription to
			// converge on the oracle.
			deadline := time.Now().Add(5 * time.Second)
			for subs[j].Answer() != want.Answer {
				if time.Now().After(deadline) {
					t.Fatalf("step %d query %d: subscription answer %v, oracle %v",
						i, j, subs[j].Answer(), want.Answer)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestSubscribeMalformedPushDoesNotMaskRepush is the regression test for
// the version high-water mark advancing before the delta's triplet
// decoded: an undecodable push used to be swallowed AND make the
// replica's valid re-push of the same version look "already applied", so
// subscribers kept a stale answer. The mark must only advance on a
// successful decode.
func TestSubscribeMalformedPushDoesNotMaskRepush(t *testing.T) {
	doc := NewElement("r", "", NewElement("a", ""))
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	q := MustPrepare(`//b`)
	sub, err := sys.Subscribe(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Answer() {
		t.Fatal("baseline answer true, want false (no <b> yet)")
	}

	// What fragment 1 would ship after gaining a <b>, pushed by hand at the
	// next version: first cut short, then — the replica's re-push — whole.
	tr, _, err := eval.BottomUp(NewElement("a", "", NewElement("b", "")), q.program())
	if err != nil {
		t.Fatal(err)
	}
	valid := tr.Encode()
	site, ok := sys.cluster.Site("S1")
	if !ok {
		t.Fatal("no site S1")
	}
	version := site.FragmentVersion(1) + 1
	push := func(triplet []byte) {
		site.PushDelta(views.Delta{Frag: 1, Version: version, FP: q.program().Fingerprint(), Triplet: triplet}.Encode())
	}
	push(valid[:len(valid)-1])
	push(valid)
	if n := subRecv(t, sub); !n.Flipped || !n.Answer || n.Version != version {
		t.Fatalf("re-push notification = %+v, want Flipped && Answer at version %d", n, version)
	}
	// The cut-short push was counted, and a frame that is not a delta at
	// all is too.
	site.PushDelta([]byte{0xff})
	var p obs.Prom
	for deadline := time.Now().Add(5 * time.Second); ; {
		p = obs.Prom{}
		sys.fillMetrics(&p)
		if strings.Contains(p.String(), `parbox_subscription_faults_total{reason="undecodable_delta"} 1`) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, want := range []string{
		`parbox_subscription_faults_total{reason="undecodable_delta"} 1`,
		`parbox_subscription_faults_total{reason="undecodable_triplet"} 1`,
		`parbox_subscription_faults_total{reason="solve_failed"} 0`,
	} {
		if !strings.Contains(p.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, p.String())
		}
	}
}

// TestSubscriptionArenaCompaction drives the one compaction helper
// (eval.CompactTriplets) through a subscription's solver state, as
// views.TestArenaCompactionKeepsViewConsistent does through View.Update:
// before every update the state's arena is inflated past the 64k-node
// threshold with junk — standing in for the accumulated garbage of many
// deltas. The state must compact, keep working on valid ids, and — like
// the view the updates go through — answer exactly as local evaluation of
// the edited document does.
func TestSubscriptionArenaCompaction(t *testing.T) {
	doc := NewElement("r", "", NewElement("a", ""), NewElement("c", ""))
	mirror := doc.Clone()
	forest := NewForest(doc)
	for _, c := range []*Node{doc.Children[0], doc.Children[1]} {
		if _, err := forest.Split(c); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1", 2: "S2"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	q := MustPrepare(`//a[b] && //c`)
	sub, err := sys.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Exec(ctx, q, WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	view := res.View

	st := sub.state
	inflate := func() {
		st.mu.Lock()
		for i := int32(0); st.arena.Len() < eval.CompactAt; i++ {
			x := st.arena.Var(boolexpr.Var{Frag: 9000, Vec: boolexpr.VecV, Q: i})
			y := st.arena.Var(boolexpr.Var{Frag: 9001, Vec: boolexpr.VecDV, Q: i})
			st.arena.Or2(x, y)
		}
		st.mu.Unlock()
	}

	mirrorA := mirror.Children[0]
	steps := []struct {
		ops  []UpdateOp
		edit func()
	}{
		{[]UpdateOp{{Op: OpInsert, Label: "b"}}, func() { mirrorA.AppendChild(NewElement("b", "")) }},
		{[]UpdateOp{{Op: OpDelete, Path: []int{0}}}, func() { mirrorA.RemoveChild(mirrorA.Children[0]) }},
		{[]UpdateOp{{Op: OpInsert, Label: "b"}}, func() { mirrorA.AppendChild(NewElement("b", "")) }},
	}
	for i, step := range steps {
		inflate()
		if _, err := view.Update(ctx, 1, step.ops); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		step.edit()
		want, err := EvaluateLocal(mirror, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := view.Answer(); got != want {
			t.Fatalf("step %d: view answer %v, local evaluation %v", i, got, want)
		}
		if n := subRecv(t, sub); !n.Flipped || n.Answer != want {
			t.Fatalf("step %d: notification %+v, local evaluation %v", i, n, want)
		}
		st.mu.Lock()
		subLen := st.arena.Len()
		st.mu.Unlock()
		if subLen >= eval.CompactAt {
			t.Fatalf("step %d: subscription arena not compacted (%d nodes)", i, subLen)
		}
	}
}

// TestSubscriptionEndsLoudlyOnUnsolvableDelta reproduces a fragmentation
// change the subscription's source tree does not know about: Deploy,
// Subscribe, View.Split, then updates. The update inside the new fragment
// reaches no subscription (the new fragment carries no standing
// registration); the update inside the split fragment pushes its triplet,
// which now mentions the new fragment's variables, so the re-solve over
// the subscription's pre-split source tree fails. The subscription must
// end — Done closes — instead of answering from the pre-split state.
func TestSubscriptionEndsLoudlyOnUnsolvableDelta(t *testing.T) {
	doc := NewElement("r", "", NewElement("a", "", NewElement("x", ""), NewElement("y", "", NewElement("w", ""))))
	forest := NewForest(doc)
	if _, err := forest.Split(doc.Children[0]); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(forest, Assignment{0: "S0", 1: "S1"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	q := MustPrepare(`//z = "new"`)
	sub, err := sys.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelled subscription reports no cause.
	other, err := sys.Subscribe(ctx, MustPrepare(`//w`))
	if err != nil {
		t.Fatal(err)
	}
	other.Cancel()
	if err := other.Err(); err != nil {
		t.Errorf("cancelled subscription's Err() = %v, want nil", err)
	}
	res, err := sys.Exec(ctx, q, WithMode(ModeMaterialize))
	if err != nil {
		t.Fatal(err)
	}
	view := res.View
	id, _, err := view.Split(ctx, 1, []int{1}, "S0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.Update(ctx, id, []UpdateOp{{Op: OpInsert, Label: "z", Text: "new"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := view.Update(ctx, 1, []UpdateOp{{Op: OpInsert, Label: "x"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	case n := <-sub.C():
		t.Fatalf("notified %+v from a source tree that lacks fragment %d", n, id)
	case <-time.After(5 * time.Second):
		t.Fatal("subscription still open and silent after an unsolvable delta")
	}
	if err := sub.Err(); !errors.Is(err, eval.ErrUnresolved) {
		t.Errorf("Err() = %v, want the unresolved-variables error", err)
	}
	var p obs.Prom
	sys.fillMetrics(&p)
	if want := `parbox_subscription_faults_total{reason="solve_failed"} 1`; !strings.Contains(p.String(), want) {
		t.Errorf("/metrics lacks %q:\n%s", want, p.String())
	}
}
