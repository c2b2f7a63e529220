package parbox

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/store"
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

// openSeedStores opens one store per site under o.dataDir for setupSite
// to seed (Deploy's sites, or the one AddSite adds), wiping torn seeds
// (store.OpenSeedable), and returns them with the abort that undoes the
// opening if the setup fails later.
//
// It is crash-idempotent across the whole directory, not just per site: a
// previous Deploy that died between per-site seed checkpoints leaves some
// sites completed and others torn or missing — a state neither Restore
// (incomplete) nor a naive per-site check (the completed sites look used)
// could get out of. Since nothing is ever served before Deploy returns,
// any mixed state is a failed seeding: it is wiped wholesale and reseeded
// from the caller's forest. Only a directory where every site completed
// is refused as live state ("use Restore").
func openSeedStores(o options, sites []SiteID) (map[SiteID]*store.Store, func(), error) {
	type opened struct {
		dir   string
		st    *store.Store
		fresh bool // held no completed state when opened (safe to clean up)
	}
	all := make(map[SiteID]*opened, len(sites))
	abort := func() {
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
	}
	fail := func(err error) (map[SiteID]*store.Store, func(), error) {
		abort()
		return nil, nil, err
	}

	completed := 0
	for _, id := range sites {
		name, err := siteDirName(id)
		if err != nil {
			return fail(err)
		}
		dir := filepath.Join(o.dataDir, name)
		st, err := store.OpenSeedable(dir, storeOptions(o))
		if err != nil {
			return fail(err)
		}
		all[id] = &opened{dir: dir, st: st, fresh: st.Empty()}
		if !st.Empty() {
			completed++
		}
	}
	if completed == len(all) && completed > 0 {
		return fail(fmt.Errorf("parbox: data dir %s already holds completed site state; use Restore to restart from it", o.dataDir))
	}
	stores := make(map[SiteID]*store.Store, len(all))
	for id, op := range all {
		if !op.fresh {
			// Mixed: a Deploy crashed between per-site seed checkpoints.
			// The completed sites hold seed data only; wipe and reseed.
			op.st.Discard()
			if err := store.Wipe(op.dir); err != nil {
				return fail(err)
			}
			st, err := store.Open(op.dir, storeOptions(o))
			if err != nil {
				return fail(err)
			}
			op.st, op.fresh = st, true
		}
		stores[id] = op.st
	}
	return stores, abort, nil
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

// drainStores runs fn on each of the durable stores in site order and
// returns the first error, a site's accumulated persistence error
// included.
func (s *System) drainStores(stores map[SiteID]*store.Store, fn func(*store.Store) error) error {
	ids := make([]SiteID, 0, len(stores))
	for id := range stores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var first error
	for _, id := range ids {
		if site, ok := s.cluster.Site(id); ok && first == nil {
			first = site.StoreErr()
		}
		if err := fn(stores[id]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint snapshots every site's store and truncates its WAL, so the
// next Restore replays snapshots only. It also surfaces any persistence
// error a site accumulated while serving. No-op without WithDurability.
func (s *System) Checkpoint() error {
	s.mu.RLock()
	stores := maps.Clone(s.stores)
	s.mu.RUnlock()
	return s.drainStores(stores, (*store.Store).Checkpoint)
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
	subs, stores := s.subs, s.stores
	s.subs, s.stores = nil, nil
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
	return s.drainStores(stores, (*store.Store).Close)
}

// Restore rebuilds a durable deployment from its data directory: every
// site subdirectory is recovered (latest snapshot plus WAL replay, torn
// tails truncated), the forest and assignment are reconstructed from the
// recovered fragments, and fragment versions are restored exactly as
// persisted — so with WithTripletCache the sites' triplet caches
// warm-start and unchanged fragments serve evalQual with zero bottomUp
// steps from the first post-restart query.
//
// Restore sets up sites and the System the way Deploy does, so every
// Deploy option is honoured, or refused with an error: WithDurability
// (dir is the data directory), and WithReplication, WithFailover,
// WithHedging and WithRebalancing (a durable deployment is unreplicated).
//
// Recovery is per-site atomic: a crash strictly between maintenance
// operations restores the exact pre-crash state, while a crash inside a
// cross-site Split/Merge can leave one site's log ahead of the other's,
// which Restore reports as a forest-validation error instead of serving
// inconsistent answers.
func Restore(dir string, opts ...Option) (*System, error) {
	o := newOptions(opts)
	switch {
	case o.dataDir != "":
		return nil, errors.New("parbox: Restore takes its data directory as its argument; WithDurability does not apply")
	case o.replication != 0:
		return nil, errors.New("parbox: WithReplication is not supported by Restore (a durable deployment is unreplicated)")
	}
	o.dataDir = dir
	if err := o.check(false); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("parbox: restore: %w", err)
	}
	var sites []SiteID
	stores := make(map[SiteID]*store.Store)
	closeAll := func() {
		// Failure paths leave the on-disk state untouched (no checkpoint):
		// a Restore that could not complete must not mutate what it read.
		for _, st := range stores {
			st.Discard()
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
		sites = append(sites, SiteID(e.Name()))
		stores[SiteID(e.Name())] = st
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("parbox: restore: %s holds no site directories", dir)
	}

	assign := Assignment{}
	var frs []*frag.Fragment
	for _, site := range sites {
		for _, id := range stores[site].FragmentIDs() {
			fr, _, ok, err := stores[site].LoadFragment(id)
			if err != nil || !ok {
				closeAll()
				return nil, fmt.Errorf("parbox: restore: loading fragment %d at %s: %w", id, site, err)
			}
			if prev, dup := assign[id]; dup {
				closeAll()
				return nil, fmt.Errorf("parbox: restore: fragment %d stored at both %s and %s", id, prev, site)
			}
			assign[id] = site
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
	for _, site := range sites {
		// A recovered site holding no live fragments (everything merged
		// away) still carries dead version counters and may adopt
		// fragments again: it is set up like the others.
		c.AddSite(site)
	}
	s := &System{cluster: c, engine: eng, forest: forest, stores: stores}
	if err := s.assemble(o); err != nil {
		closeAll()
		return nil, err
	}
	return s, nil
}
