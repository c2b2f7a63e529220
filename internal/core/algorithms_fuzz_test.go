package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// siteVisits reads every site's own visit counter.
func siteVisits(c *cluster.Cluster) map[frag.SiteID]uint64 {
	visits := map[frag.SiteID]uint64{}
	for _, id := range c.Sites() {
		s, _ := c.Site(id)
		visits[id] = s.Stats().Snapshot().Visits
	}
	return visits
}

// FuzzAlgorithms is the Boolean differential over all six algorithms:
// over a random tree, fragmented as a star, a chain, at random, or with
// every sub-fragment on one site (FuzzSelectTransfer's generators), a
// random Boolean query must answer through every algorithm as
// xpath.EvalRaw answers on the unfragmented tree, and every run's
// Report.Visits must equal, site by site, the visits the sites counted in
// their own SiteStats — the site-to-site hops of NaiveDistributed and
// FullDist included.
func FuzzAlgorithms(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(shape+1), uint8(40), uint8(shape), uint8(4))
		f.Add(int64(100+shape), uint8(90), uint8(shape), uint8(9))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, shape, splits uint8) {
		r := rand.New(rand.NewSource(seed))
		tree := xmltree.RandomTree(r, xmltree.RandomSpec{Nodes: 2 + int(size%120)})
		orig := tree.Clone()
		forest, assign, err := fragmentForFuzz(r, tree, int(shape)%numShapes, 1+int(splits%10))
		if err != nil {
			t.Skip(err) // SplitRandom asks for more cuts than the tree allows
		}
		q := xpath.RandomQuery(r, xpath.RandomSpec{AllowNot: true})
		prog := xpath.Compile(q)
		want := xpath.EvalRaw(q, orig)
		c := cluster.New(cluster.DefaultCostModel())
		eng, err := Deploy(c, forest, assign)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algorithms() {
			before := siteVisits(c)
			rep, err := eng.Run(context.Background(), algo, prog)
			if err != nil {
				t.Fatalf("%s(%q) over %d fragments: %v", algo, q.String(), forest.Count(), err)
			}
			if rep.Answer != want {
				t.Fatalf("%s(%q) over %d fragments = %v, EvalRaw %v", algo, q.String(), forest.Count(), rep.Answer, want)
			}
			after := siteVisits(c)
			for site := range rep.Visits {
				if _, ok := after[site]; !ok {
					t.Fatalf("%s(%q): report visits %s, which is no site", algo, q.String(), site)
				}
			}
			for site, n := range after {
				if got, d := rep.Visits[site], n-before[site]; uint64(got) != d {
					t.Fatalf("%s(%q): visits[%s] report=%d site stats=%d", algo, q.String(), site, got, d)
				}
			}
		}
	})
}
