package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// replicatedSetup builds a 5-fragment star document where every fragment
// is replicated at 2–3 of the 4 sites.
func replicatedSetup(t *testing.T) (*frag.Forest, ReplicaMap, *cluster.Cluster) {
	t.Helper()
	root, sites, err := xmark.BuildDoc(xmark.TreeSpec{
		Seed:       9,
		Parents:    xmark.StarParents(5),
		MBs:        []float64{0.2, 1.0, 0.4, 0.4, 0.2},
		NodesPerMB: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := xmark.Fragment(root, sites)
	if err != nil {
		t.Fatal(err)
	}
	replicas := ReplicaMap{
		0: {"S0", "S1"},
		1: {"S1", "S2", "S3"},
		2: {"S2", "S0"},
		3: {"S3", "S1"},
		4: {"S0", "S2", "S3"},
	}
	return forest, replicas, cluster.New(cluster.DefaultCostModel())
}

func TestReplicatedCorrectAcrossStrategies(t *testing.T) {
	forest, replicas, c := replicatedSetup(t)
	orig, err := forest.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	prog := xpath.MustCompileString(xmark.Queries[8])
	want := xpath.EvalRaw(xpath.MustParse(xmark.Queries[8]), orig)
	eng, err := DeployReplicated(c, forest, replicas, PlaceFirst)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, strategy := range []PlacementStrategy{PlaceFirst, PlaceMinSites, PlaceBalanced} {
		eng2, err := eng.Replan(forest, replicas, strategy)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		for _, algo := range []Algorithm{AlgoParBoX, AlgoFullDist, AlgoLazy} {
			rep, err := eng2.Run(ctx, algo, prog)
			if err != nil {
				t.Errorf("%v/%s: %v", strategy, algo, err)
				continue
			}
			if rep.Answer != want {
				t.Errorf("%v/%s = %v, want %v", strategy, algo, rep.Answer, want)
			}
		}
	}
	_ = eng
}

func TestPlaceMinSitesReducesSiteCount(t *testing.T) {
	forest, replicas, _ := replicatedSetup(t)
	sizes := map[xmltree.FragmentID]int{}
	for _, id := range forest.IDs() {
		fr, _ := forest.Fragment(id)
		sizes[id] = fr.Size()
	}
	countSites := func(a frag.Assignment) int {
		set := map[frag.SiteID]bool{}
		for _, s := range a {
			set[s] = true
		}
		return len(set)
	}
	minA, err := PlanPlacement(replicas, sizes, PlaceMinSites)
	if err != nil {
		t.Fatal(err)
	}
	firstA, err := PlanPlacement(replicas, sizes, PlaceFirst)
	if err != nil {
		t.Fatal(err)
	}
	if countSites(minA) > countSites(firstA) {
		t.Errorf("min-sites used %d sites, first used %d", countSites(minA), countSites(firstA))
	}
	// For this replica map, two sites suffice (S1 covers {0,1,3}, and S0
	// or S2 covers {2,4}); greedy set cover must find ≤ 3.
	if countSites(minA) > 2 {
		t.Errorf("min-sites used %d sites, want ≤ 2: %v", countSites(minA), minA)
	}
}

func TestPlaceBalancedReducesMakespan(t *testing.T) {
	forest, replicas, _ := replicatedSetup(t)
	sizes := map[xmltree.FragmentID]int{}
	for _, id := range forest.IDs() {
		fr, _ := forest.Fragment(id)
		sizes[id] = fr.Size()
	}
	maxLoad := func(a frag.Assignment) int {
		load := map[frag.SiteID]int{}
		for id, s := range a {
			load[s] += sizes[id]
		}
		max := 0
		for _, l := range load {
			if l > max {
				max = l
			}
		}
		return max
	}
	balA, err := PlanPlacement(replicas, sizes, PlaceBalanced)
	if err != nil {
		t.Fatal(err)
	}
	minA, err := PlanPlacement(replicas, sizes, PlaceMinSites)
	if err != nil {
		t.Fatal(err)
	}
	if maxLoad(balA) > maxLoad(minA) {
		t.Errorf("balanced max load %d exceeds min-sites' %d", maxLoad(balA), maxLoad(minA))
	}
	// And the balanced plan's ParBoX makespan beats the min-sites plan's
	// on this size-skewed layout.
	_, _, c := replicatedSetup(t)
	eng, err := DeployReplicated(c, forest, replicas, PlaceFirst)
	if err != nil {
		t.Fatal(err)
	}
	prog := xpath.MustCompileString(xmark.Queries[8])
	ctx := context.Background()
	engBal, err := eng.Replan(forest, replicas, PlaceBalanced)
	if err != nil {
		t.Fatal(err)
	}
	engMin, err := eng.Replan(forest, replicas, PlaceMinSites)
	if err != nil {
		t.Fatal(err)
	}
	repBal, err := engBal.ParBoX(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	repMin, err := engMin.ParBoX(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if repBal.SimTime > repMin.SimTime {
		t.Errorf("balanced %v slower than min-sites %v", repBal.SimTime, repMin.SimTime)
	}
}

func TestPlanPlacementErrors(t *testing.T) {
	if _, err := PlanPlacement(ReplicaMap{0: nil}, nil, PlaceFirst); err == nil {
		t.Error("empty replica list accepted")
	}
	if _, err := PlanPlacement(ReplicaMap{0: {"S0"}}, nil, PlacementStrategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
	forest, _, c := replicatedSetup(t)
	if _, err := DeployReplicated(c, forest, ReplicaMap{0: {"S0"}}, PlaceFirst); err == nil {
		t.Error("missing replicas for fragments 1..4 accepted")
	}
}

// TestPropReplicatedAgreesWithCentralized: random replica maps never change
// answers, under every strategy.
func TestPropReplicatedAgreesWithCentralized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + r.Intn(50)})
		orig := tree.Clone()
		forest := frag.NewForest(tree)
		if err := forest.SplitRandom(r, 1+r.Intn(5)); err != nil {
			return false
		}
		all := []frag.SiteID{"S0", "S1", "S2", "S3"}
		replicas := ReplicaMap{}
		for _, id := range forest.IDs() {
			n := 1 + r.Intn(3)
			perm := r.Perm(len(all))
			var sites []frag.SiteID
			for _, p := range perm[:n] {
				sites = append(sites, all[p])
			}
			replicas[id] = sites
		}
		c := cluster.New(cluster.DefaultCostModel())
		base, err := DeployReplicated(c, forest, replicas, PlaceFirst)
		if err != nil {
			return false
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)
		want := xpath.EvalRaw(q, orig)
		for _, strategy := range []PlacementStrategy{PlaceFirst, PlaceMinSites, PlaceBalanced} {
			eng, err := base.Replan(forest, replicas, strategy)
			if err != nil {
				return false
			}
			rep, err := eng.ParBoX(context.Background(), prog)
			if err != nil || rep.Answer != want {
				t.Logf("%v(%q): %v answer=%v want=%v (seed %d)", strategy, q.String(), err, rep.Answer, want, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCountParBoX(t *testing.T) {
	forest, replicas, c := replicatedSetup(t)
	orig, err := forest.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := DeployReplicated(c, forest, replicas, PlaceBalanced)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, src := range []string{`//item`, `//person/name`, `//nothing`, `//item[location = "Kenya"]`} {
		sp, err := xpath.CompileSelectString(src)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.CountParBoX(ctx, sp)
		if err != nil {
			t.Fatalf("CountParBoX(%q): %v", src, err)
		}
		e, _ := xpath.Parse(src)
		want, err := xpath.SelectRaw(e, orig)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Count != int64(len(want)) {
			t.Errorf("count(%q) = %d, want %d", src, rep.Count, len(want))
		}
		var perSite int64
		for _, n := range rep.PerSite {
			perSite += n
		}
		if perSite != rep.Count {
			t.Errorf("per-site counts sum to %d, total %d", perSite, rep.Count)
		}
	}
	// Counting must be cheaper on the wire than full selection when many
	// nodes match.
	sp, _ := xpath.CompileSelectString(`//item`)
	cnt, err := eng.CountParBoX(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := eng.SelectParBoX(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count != int64(sel.Count) {
		t.Fatalf("count %d != selection %d", cnt.Count, sel.Count)
	}
	if cnt.Bytes >= sel.Bytes {
		t.Errorf("count traffic %d not below selection traffic %d", cnt.Bytes, sel.Bytes)
	}
}
