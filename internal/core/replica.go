package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/xmltree"
)

// Replication support — the paper's Section 8 lists "other optimization
// techniques for xml query processing, in the presence of replication" as
// planned work, citing [1]. Here a fragment may be stored at several
// sites; before a query runs, a placement strategy picks one replica per
// fragment, producing the source tree ParBoX evaluates against. Because
// ParBoX's traffic is tiny and data never moves, re-planning per query is
// free — the coordinator just derives a different S_T.

// ReplicaMap lists, per fragment, every site holding a copy. Every
// fragment needs at least one replica.
type ReplicaMap map[xmltree.FragmentID][]frag.SiteID

// PlacementStrategy selects replicas.
type PlacementStrategy int

const (
	// PlaceFirst picks each fragment's first listed replica (the paper's
	// implicit single-copy behaviour when each fragment has one site).
	PlaceFirst PlacementStrategy = iota
	// PlaceMinSites greedily minimizes the number of distinct sites
	// consulted (fewer visits and messages; good over high-latency links).
	PlaceMinSites
	// PlaceBalanced greedily minimizes the maximum aggregated fragment
	// size per site — the paper's parallel-computation bound
	// O(|q|·max_Si|F_Si|) — for the fastest stage 2.
	PlaceBalanced
)

func (s PlacementStrategy) String() string {
	switch s {
	case PlaceFirst:
		return "first"
	case PlaceMinSites:
		return "min-sites"
	case PlaceBalanced:
		return "balanced"
	default:
		return fmt.Sprintf("PlacementStrategy(%d)", int(s))
	}
}

// ErrNoReplica is returned when a fragment has no replica listed.
var ErrNoReplica = errors.New("core: fragment has no replica")

// PlanPlacement chooses one site per fragment. sizes gives |F_j| (used by
// PlaceBalanced; zero sizes degrade it to arbitrary-but-deterministic).
func PlanPlacement(replicas ReplicaMap, sizes map[xmltree.FragmentID]int, strategy PlacementStrategy) (frag.Assignment, error) {
	ids := make([]xmltree.FragmentID, 0, len(replicas))
	for id, sites := range replicas {
		if len(sites) == 0 {
			return nil, fmt.Errorf("%w: %d", ErrNoReplica, id)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	assign := make(frag.Assignment, len(ids))

	switch strategy {
	case PlaceFirst:
		for _, id := range ids {
			assign[id] = replicas[id][0]
		}

	case PlaceMinSites:
		// Greedy set cover: repeatedly pick the site covering the most
		// unassigned fragments (ties broken by site name for
		// determinism).
		unassigned := make(map[xmltree.FragmentID]bool, len(ids))
		for _, id := range ids {
			unassigned[id] = true
		}
		for len(unassigned) > 0 {
			counts := make(map[frag.SiteID]int)
			for id := range unassigned {
				for _, s := range replicas[id] {
					counts[s]++
				}
			}
			var best frag.SiteID
			bestN := -1
			var sites []frag.SiteID
			for s := range counts {
				sites = append(sites, s)
			}
			sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
			for _, s := range sites {
				if counts[s] > bestN {
					best, bestN = s, counts[s]
				}
			}
			for id := range unassigned {
				for _, s := range replicas[id] {
					if s == best {
						assign[id] = best
						delete(unassigned, id)
						break
					}
				}
			}
		}

	case PlaceBalanced:
		// Longest-processing-time greedy: biggest fragments first, each
		// to its least-loaded replica site.
		order := append([]xmltree.FragmentID(nil), ids...)
		sort.Slice(order, func(i, j int) bool {
			if sizes[order[i]] != sizes[order[j]] {
				return sizes[order[i]] > sizes[order[j]]
			}
			return order[i] < order[j]
		})
		load := make(map[frag.SiteID]int)
		for _, id := range order {
			cands := append([]frag.SiteID(nil), replicas[id]...)
			sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
			best := cands[0]
			for _, s := range cands[1:] {
				if load[s] < load[best] {
					best = s
				}
			}
			assign[id] = best
			load[best] += sizes[id]
		}

	default:
		return nil, fmt.Errorf("core: unknown placement strategy %v", strategy)
	}
	return assign, nil
}

// DeployReplicated stores every replica of every fragment at its sites
// (copies are cloned so sites do not share trees), registers handlers,
// and returns an engine over the placement chosen by the strategy. Use
// Engine.Replan to derive engines for other strategies over the same
// cluster without moving any data.
func DeployReplicated(c *cluster.Cluster, forest *frag.Forest, replicas ReplicaMap, strategy PlacementStrategy) (*Engine, error) {
	for _, id := range forest.IDs() {
		fr, ok := forest.Fragment(id)
		if !ok {
			return nil, fmt.Errorf("core: missing fragment %d", id)
		}
		sites, ok := replicas[id]
		if !ok || len(sites) == 0 {
			return nil, fmt.Errorf("%w: %d", ErrNoReplica, id)
		}
		for _, siteID := range sites {
			site := c.AddSite(siteID)
			site.AddFragment(&frag.Fragment{ID: fr.ID, Parent: fr.Parent, Root: fr.Root.Clone()})
		}
	}
	for _, siteID := range c.Sites() {
		RegisterHandlers(c.AddSite(siteID), c, c.Cost())
	}
	return NewEngine(c, "", nil, c.Cost()).Replan(forest, replicas, strategy)
}

// Replan returns a copy of e over the placement the strategy chooses
// from replicas, coordinated from the root fragment's chosen site. The
// copy keeps e's transport, cost model, triplet cache, tier and retry
// policy; no data moves.
func (e *Engine) Replan(forest *frag.Forest, replicas ReplicaMap, strategy PlacementStrategy) (*Engine, error) {
	sizes := make(map[xmltree.FragmentID]int, forest.Count())
	for _, id := range forest.IDs() {
		fr, _ := forest.Fragment(id)
		sizes[id] = fr.Size()
	}
	assign, err := PlanPlacement(replicas, sizes, strategy)
	if err != nil {
		return nil, err
	}
	st, err := frag.BuildSourceTree(forest, assign)
	if err != nil {
		return nil, err
	}
	rootEntry, _ := st.Entry(st.Root())
	cp := *e
	cp.st, cp.coord = st, rootEntry.Site
	return &cp, nil
}
