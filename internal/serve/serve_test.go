package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

var errBoom = errors.New("boom")

func tracker(opt Options, sites ...frag.SiteID) *healthTracker {
	return newHealthTracker(opt.withDefaults(), sites)
}

func TestHealthStateMachine(t *testing.T) {
	h := tracker(Options{}, "A") // defaults: DownAfter 3, UpAfter 2

	if got := h.state("A"); got != Up {
		t.Fatalf("initial state %v, want up", got)
	}
	// First failure only suspects; Down takes DownAfter consecutive ones.
	h.result("A", 0, errBoom)
	if got := h.state("A"); got != Suspect {
		t.Fatalf("after 1 failure: %v, want suspect", got)
	}
	h.result("A", 0, errBoom)
	if got := h.state("A"); got != Suspect {
		t.Fatalf("after 2 failures: %v, want suspect", got)
	}
	h.result("A", 0, errBoom)
	if got := h.state("A"); got != Down {
		t.Fatalf("after 3 failures: %v, want down", got)
	}
	// One success is not full trust: Down goes through Suspect, and only
	// UpAfter consecutive successes promote back to Up.
	h.result("A", time.Millisecond, nil)
	if got := h.state("A"); got != Suspect {
		t.Fatalf("after revival probe: %v, want suspect", got)
	}
	h.result("A", time.Millisecond, nil)
	if got := h.state("A"); got != Up {
		t.Fatalf("after second success: %v, want up", got)
	}

	st := h.snapshot()["A"]
	if st.Fails != 3 {
		t.Errorf("lifetime fails = %d, want 3", st.Fails)
	}
	// Up->Suspect, Suspect->Down, Down->Suspect, Suspect->Up.
	if st.Transitions != 4 {
		t.Errorf("transitions = %d, want 4", st.Transitions)
	}
}

func TestHealthSuccessResetsFailureStreak(t *testing.T) {
	h := tracker(Options{}, "A")
	// fail, fail, success, fail, fail: never DownAfter(3) consecutive.
	h.result("A", 0, errBoom)
	h.result("A", 0, errBoom)
	h.result("A", time.Millisecond, nil)
	h.result("A", 0, errBoom)
	h.result("A", 0, errBoom)
	if got := h.state("A"); got != Suspect {
		t.Fatalf("state %v, want suspect (streak was broken)", got)
	}
}

func TestHealthCanceledIsNeutral(t *testing.T) {
	h := tracker(Options{}, "A")
	h.started("A")
	// A round cancelling its siblings says nothing about the site.
	h.finished("A", 0, context.Canceled)
	if got := h.state("A"); got != Up {
		t.Fatalf("state after canceled call: %v, want up", got)
	}
	if st := h.snapshot()["A"]; st.Fails != 0 || st.Inflight != 0 {
		t.Fatalf("canceled call counted: %+v", st)
	}
	// A deadline, by contrast, is evidence.
	h.started("A")
	h.finished("A", 0, context.DeadlineExceeded)
	if got := h.state("A"); got != Suspect {
		t.Fatalf("state after deadline: %v, want suspect", got)
	}
}

func TestHealthInflightBracket(t *testing.T) {
	h := tracker(Options{}, "A")
	h.started("A")
	h.started("A")
	if st := h.snapshot()["A"]; st.Inflight != 2 {
		t.Fatalf("inflight = %d, want 2", st.Inflight)
	}
	h.finished("A", time.Millisecond, nil)
	if st := h.snapshot()["A"]; st.Inflight != 1 {
		t.Fatalf("inflight = %d, want 1", st.Inflight)
	}
}

// routingTier builds a transportless tier for planAssign/Reassign tests
// (routing never touches the transport).
func routingTier(replicas core.ReplicaMap) *Tier {
	return NewTier(nil, "A", nil, replicas, Options{ProbeInterval: -1})
}

func TestPlanAssignSpreadsLoad(t *testing.T) {
	// Two fragments, identical replica sets, no observations: the planned-
	// load term must spread them instead of stacking both on one site.
	tier := routingTier(core.ReplicaMap{
		1: {"A", "B"},
		2: {"A", "B"},
	})
	assign, err := tier.planAssign(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if assign[1] != "A" || assign[2] != "B" {
		t.Fatalf("assign = %v, want 1->A (tie-break) and 2->B (load)", assign)
	}
}

func TestPlanAssignPrefersLowLatency(t *testing.T) {
	tier := routingTier(core.ReplicaMap{1: {"A", "B"}})
	tier.health.result("A", 10*time.Millisecond, nil)
	tier.health.result("B", time.Millisecond, nil)
	assign, err := tier.planAssign(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if assign[1] != "B" {
		t.Fatalf("assign = %v, want the faster replica B", assign)
	}
}

func TestPlanAssignUpBeatsSuspect(t *testing.T) {
	tier := routingTier(core.ReplicaMap{1: {"A", "B"}})
	// A is fast but Suspect; B is slow but Up. State outranks score.
	tier.health.result("A", time.Microsecond, nil)
	tier.health.result("A", time.Microsecond, nil)
	tier.health.result("A", 0, errBoom)
	tier.health.result("B", 50*time.Millisecond, nil)
	if got := tier.health.state("A"); got != Suspect {
		t.Fatalf("setup: A is %v, want suspect", got)
	}
	assign, err := tier.planAssign(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if assign[1] != "B" {
		t.Fatalf("assign = %v, want Up site B over Suspect A", assign)
	}
}

func TestPlanAssignSkipsDownAndExcluded(t *testing.T) {
	tier := routingTier(core.ReplicaMap{1: {"A", "B", "C"}})
	for i := 0; i < 3; i++ {
		tier.health.result("A", 0, errBoom)
	}
	if got := tier.health.state("A"); got != Down {
		t.Fatalf("setup: A is %v, want down", got)
	}
	assign, err := tier.planAssign(nil, map[frag.SiteID]bool{"B": true})
	if err != nil {
		t.Fatal(err)
	}
	if assign[1] != "C" {
		t.Fatalf("assign = %v, want C (A down, B excluded)", assign)
	}
}

func TestPlanAssignFragmentUnavailable(t *testing.T) {
	tier := routingTier(core.ReplicaMap{1: {"A", "B"}})
	_, err := tier.planAssign([]xmltree.FragmentID{1}, map[frag.SiteID]bool{"A": true, "B": true})
	if !errors.Is(err, core.ErrFragmentUnavailable) {
		t.Fatalf("every replica excluded: err = %v, want ErrFragmentUnavailable", err)
	}
	_, err = tier.planAssign([]xmltree.FragmentID{99}, nil)
	if !errors.Is(err, core.ErrFragmentUnavailable) {
		t.Fatalf("unknown fragment: err = %v, want ErrFragmentUnavailable", err)
	}
}

func TestReassignGroupsBySite(t *testing.T) {
	tier := routingTier(core.ReplicaMap{
		1: {"A", "B"},
		2: {"A", "B"},
		3: {"A", "B"},
	})
	placement, err := tier.Reassign([]xmltree.FragmentID{1, 2, 3}, map[frag.SiteID]bool{"A": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(placement) != 1 || len(placement["B"]) != 3 {
		t.Fatalf("placement = %v, want all three fragments on B", placement)
	}
	if got := tier.Stats().Reassigns; got != 1 {
		t.Fatalf("reassign counter = %d, want 1", got)
	}
}

type fakeMetrics map[frag.SiteID]obs.SiteStatsSnapshot

func (m fakeMetrics) Site(id frag.SiteID) obs.SiteStatsSnapshot { return m[id] }

// errTransport fails every call: a migration reaching the wire is
// observable as errBoom.
type errTransport struct{}

func (errTransport) Call(context.Context, frag.SiteID, frag.SiteID, cluster.Request) (cluster.Response, cluster.CallCost, error) {
	return cluster.Response{}, cluster.CallCost{}, errBoom
}

// rebalanceTier builds a tier whose replica map leaves pickMigration a
// candidate (a fragment on B but not on A) over a transport that fails
// every call: the threshold tests below must decline BEFORE any
// migration traffic.
func rebalanceTier(m fakeMetrics) *Tier {
	tier := NewTier(errTransport{}, "A", nil, core.ReplicaMap{
		1: {"A", "B"},
		2: {"B"},
	}, Options{ProbeInterval: -1})
	tier.AttachMetrics(m)
	tier.StartRebalancer(RebalanceOptions{MinGap: 8, HotRatio: 1.5})
	return tier
}

func TestRebalanceDeclinesSmallGap(t *testing.T) {
	m := fakeMetrics{"A": {Visits: 0}, "B": {Visits: 7}} // gap 7 < MinGap 8
	moved, err := rebalanceTier(m).RebalanceOnce(context.Background())
	if err != nil || moved != 0 {
		t.Fatalf("moved=%d err=%v, want a declined pass", moved, err)
	}
}

func TestRebalanceDeclinesLowRatio(t *testing.T) {
	m := fakeMetrics{"A": {Visits: 100}, "B": {Visits: 130}} // 1.3x < 1.5x
	moved, err := rebalanceTier(m).RebalanceOnce(context.Background())
	if err != nil || moved != 0 {
		t.Fatalf("moved=%d err=%v, want a declined pass", moved, err)
	}
}

func TestRebalanceWindowIsDelta(t *testing.T) {
	// A skew cleared in pass 1 must not re-trigger pass 2: each pass sees
	// only the traffic since the previous one.
	m := fakeMetrics{"A": {Visits: 0}, "B": {Visits: 100}}
	tier := rebalanceTier(m)
	ctx := context.Background()
	// Pass 1 would migrate, but there is no transport: it must fail at the
	// clone call, NOT at threshold evaluation.
	if _, err := tier.RebalanceOnce(ctx); err == nil {
		t.Fatal("pass 1 reached migration yet reported success without a transport")
	}
	// Same cumulative counters: the window is empty now, so pass 2
	// declines before touching the (absent) transport.
	moved, err := tier.RebalanceOnce(ctx)
	if err != nil || moved != 0 {
		t.Fatalf("pass 2: moved=%d err=%v, want a declined pass", moved, err)
	}
}

func TestRebalanceNeverMigratesToDownSite(t *testing.T) {
	m := fakeMetrics{"A": {Visits: 0}, "B": {Visits: 100}}
	tier := rebalanceTier(m)
	for i := 0; i < 3; i++ {
		tier.health.result("A", 0, errBoom)
	}
	moved, err := tier.RebalanceOnce(context.Background())
	if err != nil || moved != 0 {
		t.Fatalf("moved=%d err=%v, want a declined pass (cold site down)", moved, err)
	}
}

func TestRebalancePicksLargestExclusiveFragment(t *testing.T) {
	doc := xmltree.NewElement("r", "",
		xmltree.NewElement("small", ""),
		xmltree.NewElement("big", "", xmltree.NewElement("x", ""), xmltree.NewElement("y", "")),
	)
	forest := frag.NewForest(doc)
	small, err := forest.Split(doc.Children[0])
	if err != nil {
		t.Fatal(err)
	}
	big, err := forest.Split(doc.Children[1])
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(nil, "A", forest, core.ReplicaMap{
		0:     {"A", "B"}, // on both: not a candidate
		small: {"B"},
		big:   {"B"},
	}, Options{ProbeInterval: -1})
	id, ok := tier.pickMigration("B", "A")
	if !ok || id != big {
		t.Fatalf("pickMigration = %d,%v, want the larger fragment %d", id, ok, big)
	}
}
