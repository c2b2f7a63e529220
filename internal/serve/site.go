package serve

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/store"
	"repro/internal/views"
)

// SetupSite gives a site what every site serves, the same way on every
// deployment path (the facade's systems and the site daemon): the core
// and views handlers, obs.stats, this tier's handlers, and admission
// control past admission concurrent requests (0: none). tr and cost are
// what the site's own resolve hops use. With a store st the site becomes
// durable: an empty store is seeded with the site's fragments, one that
// holds state gives the site back its fragment versions and cached
// triplets, and the site keeps at most maxResident fragments in memory
// (0: no bound).
func SetupSite(site *cluster.Site, tr cluster.Transport, cost cluster.CostModel, admission int, st *store.Store, maxResident int) error {
	core.RegisterHandlers(site, tr, cost)
	views.RegisterHandlers(site, tr)
	cluster.RegisterStatsHandler(site)
	RegisterHandlers(site)
	site.SetAdmission(admission)
	if st == nil {
		return nil
	}
	if st.Empty() {
		for _, id := range site.FragmentIDs() {
			if err := site.ReadFragment(id, func(fr *frag.Fragment, version uint64) error {
				return st.PutFragment(fr, version)
			}); err != nil {
				return err
			}
		}
		// The checkpoint marks the seed complete: a crash before it
		// leaves a store the next start wipes and reseeds
		// (store.OpenSeedable) instead of serving a fragment subset.
		if err := st.Checkpoint(); err != nil {
			return err
		}
	} else {
		for id, v := range st.Versions() {
			site.RestoreVersion(id, v)
		}
	}
	site.AttachStore(st, maxResident)
	ts, err := st.Triplets()
	if err != nil {
		return err
	}
	for _, te := range ts {
		core.RestoreTriplet(site, te.Frag, te.Version, te.FP, te.Enc)
	}
	return nil
}
