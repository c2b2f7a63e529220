package core

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/xmltree"
)

// tripletCache is a site's versioned memo of computed partial answers: the
// encoded triplet of a fragment, keyed by (fragment, program fingerprint)
// and guarded by the fragment's version. As long as a fragment has not
// changed since a program last visited it, evalQual answers straight from
// the cache — zero bottomUp steps — and the coordinator merely re-solves
// the equation system. Any maintenance that touches the fragment bumps its
// site version (cluster.Site.BumpFragment), so the next lookup observes a
// version mismatch, evicts the stale entry and recomputes; entries of
// untouched fragments are unaffected.
//
// Values are the immutable wire encoding (not decoded formulas): a hit is
// returned by reference into the response with no re-encoding, and the
// bytes are safe to share across concurrent requests.
type tripletCache struct {
	mu      sync.Mutex
	entries map[tcKey]*tcEntry
	// order is a FIFO of insertions for bounded-size eviction; keys already
	// evicted (or replaced) are skipped when popped.
	order []tcKey
}

type tcKey struct {
	id xmltree.FragmentID
	fp uint64
}

type tcEntry struct {
	version uint64
	enc     []byte
}

// maxTripletCacheEntries bounds a site's cache. Entries are one encoded
// triplet each (hundreds of bytes, O(|q|·virtual-nodes), never O(|F|)), so
// the bound caps memory at roughly a megabyte per site while comfortably
// holding a dissemination system's standing query set.
const maxTripletCacheEntries = 4096

// tripletCacheKey is the site-state key the cache lives under.
const tripletCacheKey = "parbox.tripletCache"

// siteTripletCache returns the site's cache, creating it on first use.
func siteTripletCache(site *cluster.Site) *tripletCache {
	return site.GetOrPut(tripletCacheKey, func() any {
		return &tripletCache{entries: make(map[tcKey]*tcEntry)}
	}).(*tripletCache)
}

// lookup returns the cached encoding of fragment id under program fp, if
// present and computed at exactly the given fragment version. A version
// mismatch misses; the stale entry is left in place for the follow-up
// store to overwrite — deleting it here would orphan its key in the
// eviction FIFO, growing order without bound and making a later duplicate
// key evict a live entry.
func (c *tripletCache) lookup(id xmltree.FragmentID, version, fp uint64) ([]byte, bool) {
	k := tcKey{id: id, fp: fp}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.version != version {
		return nil, false
	}
	return e.enc, true
}

// store memoizes the encoding of fragment id (at the given version) under
// program fp, evicting oldest-inserted entries past the size bound.
func (c *tripletCache) store(id xmltree.FragmentID, version, fp uint64, enc []byte) {
	k := tcKey{id: id, fp: fp}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[k]; !exists {
		c.order = append(c.order, k)
	}
	c.entries[k] = &tcEntry{version: version, enc: enc}
	for len(c.entries) > maxTripletCacheEntries && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		if victim != k {
			delete(c.entries, victim)
		} else {
			// Never evict the entry just stored; re-queue it.
			c.order = append(c.order, victim)
		}
	}
}

// StoreTriplet installs an externally computed triplet encoding in the
// site's cache, keyed at the given fragment version. Incremental
// maintenance (views.applyUpdate) uses it to patch the cache in place at
// the post-update version — turning what used to be an invalidation (and
// a full bottomUp on the next visit) into an immediate hit. enc must be
// immutable once stored.
func StoreTriplet(site *cluster.Site, id xmltree.FragmentID, version, fp uint64, enc []byte) {
	siteTripletCache(site).store(id, version, fp, enc)
}

// RestoreTriplet installs one recovered triplet-cache entry at a restarted
// site, provided it is still alive: the fragment's restored version must
// equal the version the entry was computed at, and the encoding must
// decode — a dead or undecodable entry is rejected (and reported false)
// rather than ever served. Restore entries after the site's fragment
// versions (cluster.Site.RestoreVersion) and before it serves queries.
func RestoreTriplet(site *cluster.Site, id xmltree.FragmentID, version, fp uint64, enc []byte) bool {
	if fp == 0 || version == 0 || site.FragmentVersion(id) != version {
		return false
	}
	a := eval.GetArena()
	_, err := eval.DecodeTripletInto(a, enc) // validation only
	eval.PutArena(a)
	if err != nil {
		return false
	}
	siteTripletCache(site).store(id, version, fp, enc)
	return true
}
