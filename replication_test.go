package parbox

import (
	"context"
	"testing"

	"repro/internal/xmark"
)

func TestReplicatedDeployAndReplan(t *testing.T) {
	root, sites, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       11,
		Parents:    xmark.StarParents(4),
		MBs:        []float64{0.2, 0.8, 0.3, 0.3},
		NodesPerMB: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := xmark.Fragment(root, sites)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := DeployReplicated(forest, ReplicaMap{
		0: {"A", "B"},
		1: {"B", "C"},
		2: {"C", "A"},
		3: {"A", "B", "C"},
	}, PlaceBalanced)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := MustPrepare(`//item[quantity]`)
	res, err := sys.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ok := res.Answer
	if !ok {
		t.Error("expected true")
	}
	// Replanning changes the source tree but not the answer.
	if err := sys.Replan(PlaceMinSites); err != nil {
		t.Fatal(err)
	}
	res, err = sys.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != ok {
		t.Error("replan changed the answer")
	}
	// Count aggregation over the replicated deployment.
	items := MustPrepare(`//item`)
	cnt, err := sys.Exec(ctx, items, WithMode(ModeCount))
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Counting.Count <= 0 {
		t.Errorf("count = %d", cnt.Counting.Count)
	}
	// Selection agrees with the count.
	sel, err := sys.Exec(ctx, items, WithMode(ModeSelect))
	if err != nil {
		t.Fatal(err)
	}
	if int64(sel.Selection.Count) != cnt.Counting.Count {
		t.Errorf("select %d != count %d", sel.Selection.Count, cnt.Counting.Count)
	}
}

func TestReplanRequiresReplicatedDeploy(t *testing.T) {
	doc := NewElement("r", "", NewElement("a", ""))
	sys, err := Deploy(NewForest(doc), Assignment{0: "S0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replan(PlaceBalanced); err == nil {
		t.Error("Replan on a non-replicated system accepted")
	}
}
