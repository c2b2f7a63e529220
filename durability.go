package parbox

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/xmltree"
)

// restoreWarnf reports a non-fatal inconsistency Restore repaired; tests
// override it to assert on (or silence) the warning.
var restoreWarnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// WithDurability gives every site of the deployment a durable fragment
// store rooted at dir (one subdirectory per site): a segmented, CRC-checked
// write-ahead log of fragment mutations — view-maintenance updates,
// Split/Merge, version bumps — plus periodic snapshots with WAL truncation.
// After a crash, Restore(dir) rebuilds the system from disk with every
// fragment version exactly as it was, so the versioned triplet cache
// (WithTripletCache) warm-starts and unchanged fragments answer with zero
// bottomUp steps immediately after restart.
//
// Deploy seeds the stores from the forest and therefore requires dir to
// hold no previous state; restarting from existing state is Restore's job.
// Shut down with System.Close for a checkpointed (snapshot-only) restart.
func WithDurability(dir string) Option {
	return func(o *options) { o.dataDir = dir }
}

// WithResidentFragments bounds how many fragments each site keeps in
// memory (0 = unbounded, the default). Requires WithDurability: colder
// fragments are evicted from the resident table and transparently
// reloaded from the site's store on access, so a site can host a forest
// larger than RAM. The bound must exceed the number of fragments a site
// serves or mutates concurrently.
func WithResidentFragments(n int) Option {
	return func(o *options) { o.residentLimit = n }
}

// WithSyncWrites makes every WAL append fsync before the mutation is
// acknowledged. Off by default: unsynced writes survive a process crash
// (the OS holds them), and checkpoints always sync; turn this on when the
// failure model includes the whole machine going down mid-write.
func WithSyncWrites() Option {
	return func(o *options) { o.syncWrites = true }
}

func storeOptions(o options) store.Options {
	return store.Options{SyncWrites: o.syncWrites}
}

func siteDirName(id SiteID) (string, error) {
	if id == "" || strings.ContainsAny(string(id), "/\\") || string(id)[0] == '.' {
		return "", fmt.Errorf("parbox: site name %q cannot name a data subdirectory", id)
	}
	return string(id), nil
}

// attachStores opens one store per deployed site, seeds each with the
// site's fragments at their current versions, and attaches them so every
// later mutation is journaled. Called by Deploy when WithDurability is
// given.
//
// It is crash-idempotent across the whole directory, not just per site: a
// previous Deploy that died between per-site seed checkpoints leaves some
// sites completed and others torn or missing — a state neither Restore
// (incomplete) nor a naive per-site check (the completed sites look used)
// could get out of. Since nothing is ever served before Deploy returns,
// any mixed state is a failed seeding: it is wiped wholesale and reseeded
// from the caller's forest. Only a directory where every site completed
// is refused as live state ("use Restore").
func (s *System) attachStores(o options) error {
	s.stores = make(map[SiteID]*store.Store)
	type opened struct {
		id    SiteID
		dir   string
		st    *store.Store
		fresh bool // held no completed state when opened (safe to clean up)
	}
	var all []opened
	abort := func(err error) error {
		// Discard, never Close: a checkpoint would stamp an incomplete
		// seed as complete. Cleanup touches only store-owned files of dirs
		// that held no completed state, and removes a subdirectory only
		// when that leaves it empty.
		for _, op := range all {
			op.st.Discard()
			if op.fresh {
				store.Wipe(op.dir)
				os.Remove(op.dir)
			}
		}
		s.stores = nil
		return err
	}

	// Pass 1 — open and classify every site's store (OpenSeedable already
	// wipes per-site torn seeds).
	completed := 0
	for _, siteID := range s.engine.SourceTree().Sites() {
		name, err := siteDirName(siteID)
		if err != nil {
			return abort(err)
		}
		dir := filepath.Join(o.dataDir, name)
		st, err := store.OpenSeedable(dir, storeOptions(o))
		if err != nil {
			return abort(err)
		}
		fresh := st.Empty()
		if !fresh {
			completed++
		}
		all = append(all, opened{id: siteID, dir: dir, st: st, fresh: fresh})
	}
	if completed == len(all) && completed > 0 {
		return abort(fmt.Errorf("parbox: data dir %s already holds a completed deployment; use Restore to restart from it", o.dataDir))
	}
	if completed > 0 {
		// Mixed: a Deploy crashed between per-site seed checkpoints. The
		// completed sites hold seed data only; wipe and reseed everything.
		for i := range all {
			all[i].st.Discard()
			if err := store.Wipe(all[i].dir); err != nil {
				return abort(err)
			}
			st, err := store.Open(all[i].dir, storeOptions(o))
			if err != nil {
				return abort(err)
			}
			all[i].st, all[i].fresh = st, true
		}
	}

	// Pass 2 — seed, checkpoint (the seed-completion marker), attach.
	for _, op := range all {
		site, _ := s.cluster.Site(op.id)
		for _, id := range site.FragmentIDs() {
			fr, _ := site.Fragment(id)
			if err := op.st.PutFragment(fr, site.FragmentVersion(id)); err != nil {
				return abort(err)
			}
		}
		if err := op.st.Checkpoint(); err != nil {
			return abort(err)
		}
		site.AttachStore(op.st, o.residentLimit)
		s.stores[op.id] = op.st
	}
	return nil
}

func (s *System) closeStores() {
	for _, st := range s.stores {
		st.Close()
	}
	s.stores = nil
}

// isSiteDir reports whether a Restore candidate subdirectory actually
// holds store files (a WAL segment or snapshot). Foreign directories —
// editor backups, lost+found, anything a Deploy could not have created —
// are skipped rather than turned into bogus empty sites (opening them
// would even write a WAL into them).
func isSiteDir(path string) bool {
	entries, err := os.ReadDir(path)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".wal") {
			return true
		}
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			return true
		}
	}
	return false
}

// sortedStoreSites returns the durable sites in stable order.
func (s *System) sortedStoreSites() []SiteID {
	ids := make([]SiteID, 0, len(s.stores))
	for id := range s.stores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Checkpoint snapshots every site's store and truncates its WAL, so the
// next Restore replays snapshots only. It also surfaces any persistence
// error a site accumulated while serving. No-op without WithDurability.
func (s *System) Checkpoint() error {
	var first error
	for _, id := range s.sortedStoreSites() {
		if site, ok := s.cluster.Site(id); ok && first == nil {
			first = site.StoreErr()
		}
		if err := s.stores[id].Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close shuts the system down gracefully: standing subscriptions are
// cancelled (their channels close), the serving tier's background
// goroutines stop, and each durable store checkpoints and closes, so a
// subsequent Restore starts from snapshots alone. A system that is
// dropped without Close recovers through WAL replay instead — that is
// the crash path, and it is equally correct. The introspection server
// of a WithIntrospection deployment also stops here. No-op without
// WithDurability, WithFailover, WithIntrospection or subscriptions.
func (s *System) Close() error {
	s.mu.Lock()
	subs := s.subs
	s.subs = nil
	s.mu.Unlock()
	if subs != nil {
		subs.close()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.tier != nil {
		s.tier.Stop()
	}
	var first error
	for _, id := range s.sortedStoreSites() {
		if site, ok := s.cluster.Site(id); ok && first == nil {
			first = site.StoreErr()
		}
		if err := s.stores[id].Close(); err != nil && first == nil {
			first = err
		}
	}
	s.stores = nil
	return first
}

// Restore rebuilds a durable deployment from its data directory: every
// site subdirectory is recovered (latest snapshot plus WAL replay, torn
// tails truncated), the forest and assignment are reconstructed from the
// recovered fragments, and fragment versions are restored exactly as
// persisted — so with WithTripletCache the sites' triplet caches
// warm-start and unchanged fragments serve evalQual with zero bottomUp
// steps from the first post-restart query. Options mirror Deploy's.
//
// Recovery is per-site atomic: a crash strictly between maintenance
// operations restores the exact pre-crash state, while a crash inside a
// cross-site Split/Merge can leave one site's log ahead of the other's,
// which Restore reports as a forest-validation error instead of serving
// inconsistent answers.
func Restore(dir string, opts ...Option) (*System, error) {
	o := options{cost: cluster.DefaultCostModel()}
	for _, opt := range opts {
		opt(&o)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("parbox: restore: %w", err)
	}
	type siteRec struct {
		id SiteID
		st *store.Store
	}
	var sites []siteRec
	closeAll := func() {
		// Failure paths leave the on-disk state untouched (no checkpoint):
		// a Restore that could not complete must not mutate what it read.
		for _, sr := range sites {
			sr.st.Discard()
		}
	}
	for _, e := range entries {
		if !e.IsDir() || !isSiteDir(filepath.Join(dir, e.Name())) {
			continue
		}
		if _, err := siteDirName(SiteID(e.Name())); err != nil {
			continue
		}
		st, err := store.Open(filepath.Join(dir, e.Name()), storeOptions(o))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("parbox: restore site %s: %w", e.Name(), err)
		}
		if st.Stats().SnapshotSeq == 0 {
			// Seeding always ends in a checkpoint; a store with no snapshot
			// never finished its first start and must not be trusted.
			st.Discard()
			closeAll()
			return nil, fmt.Errorf("parbox: restore site %s: store was never fully seeded; remove it and redeploy", e.Name())
		}
		sites = append(sites, siteRec{id: SiteID(e.Name()), st: st})
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("parbox: restore: %s holds no site directories", dir)
	}

	assign := Assignment{}
	var frs []*frag.Fragment
	for _, sr := range sites {
		for _, id := range sr.st.FragmentIDs() {
			fr, _, ok, err := sr.st.LoadFragment(id)
			if err != nil || !ok {
				closeAll()
				return nil, fmt.Errorf("parbox: restore: loading fragment %d at %s: %w", id, sr.id, err)
			}
			if prev, dup := assign[id]; dup {
				closeAll()
				return nil, fmt.Errorf("parbox: restore: fragment %d stored at both %s and %s", id, prev, sr.id)
			}
			assign[id] = sr.id
			frs = append(frs, fr)
		}
	}

	// Verify the persisted parent relation against the virtual-node
	// structure. Splits journal parent updates (the split site re-journals
	// its moved sub-fragments, the view sends KindSetParent to remote
	// ones), so the persisted Parent fields are normally exact and are
	// trusted as-is; a mismatch means a crash landed between a split's
	// journal appends, and is repaired from the trees — which remain
	// authoritative — with a warning.
	//
	// A non-root fragment no virtual node references is a merge-crash
	// duplicate: the merged-into fragment journaled its absorbed content
	// (merge logs the parent first) but the crash hit before the child's
	// deletion was logged. Its subtree already lives in the parent, so the
	// stale copy is dropped — iteratively, since the orphan's own virtual
	// nodes must stop counting as references too.
	for {
		parents := make(map[FragmentID]FragmentID, len(frs))
		for _, fr := range frs {
			for _, sub := range fr.SubFragments() {
				parents[sub] = fr.ID
			}
		}
		kept := frs[:0]
		dropped := false
		for _, fr := range frs {
			if _, referenced := parents[fr.ID]; !referenced && fr.Parent != frag.NoParent {
				delete(assign, fr.ID)
				dropped = true
				continue
			}
			kept = append(kept, fr)
		}
		frs = kept
		if !dropped {
			for _, fr := range frs {
				if p, ok := parents[fr.ID]; ok && fr.Parent != p {
					restoreWarnf("parbox: restore: fragment %d persists parent %d but the trees nest it under %d; repairing (crash between a split's journal appends?)",
						fr.ID, fr.Parent, p)
					fr.Parent = p
				}
			}
			break
		}
	}
	rootID := xmltree.FragmentID(0)
	roots := 0
	for _, fr := range frs {
		if fr.Parent == frag.NoParent {
			rootID = fr.ID
			roots++
		}
	}
	if roots != 1 {
		closeAll()
		return nil, fmt.Errorf("parbox: restore: recovered %d root fragments, want exactly 1", roots)
	}
	forest, err := frag.FromFragments(frs, rootID)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("parbox: restore: %w", err)
	}

	c := cluster.New(o.cost)
	eng, err := core.Deploy(c, forest, assign)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("parbox: restore: %w", err)
	}
	deployed := make(map[SiteID]bool)
	for _, siteID := range eng.SourceTree().Sites() {
		site, _ := c.Site(siteID)
		views.RegisterHandlers(site, c)
		deployed[siteID] = true
	}
	stores := make(map[SiteID]*store.Store, len(sites))
	for _, sr := range sites {
		site := c.AddSite(sr.id)
		if !deployed[sr.id] {
			// A recovered site holding no live fragments (everything merged
			// away) still carries dead version counters and may adopt
			// fragments again; give it the full protocol.
			core.RegisterHandlers(site, c, c.Cost())
			views.RegisterHandlers(site, c)
		}
		for id, v := range sr.st.Versions() {
			site.RestoreVersion(id, v)
		}
		site.AttachStore(sr.st, o.residentLimit)
		if o.tripletCache {
			ts, err := sr.st.Triplets()
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("parbox: restore: triplets at %s: %w", sr.id, err)
			}
			for _, te := range ts {
				core.RestoreTriplet(site, te.Frag, te.Version, te.FP, te.Enc)
			}
		}
		stores[sr.id] = sr.st
	}
	eng.EnableTripletCache(o.tripletCache)
	eng.SetMaxInflight(o.maxInflight)
	s := &System{
		cluster: c, engine: eng, forest: forest,
		coalesceDefault: o.coalesce, cacheEnabled: o.tripletCache,
		maxInflight: o.maxInflight, stores: stores,
	}
	s.sched = newScheduler(s, o.coalesceWindow, o.coalesceLanes)
	return s, nil
}
