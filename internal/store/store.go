package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/frag"
	"repro/internal/xmltree"
)

// Options parameterize a Store. The zero value picks the defaults.
type Options struct {
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// size. Default 1 MiB.
	SegmentBytes int64
	// CheckpointBytes auto-checkpoints (snapshot + WAL truncation) once
	// the WAL has grown past this many bytes since the last snapshot.
	// Default 8 MiB; negative disables auto-checkpointing.
	CheckpointBytes int64
	// SyncWrites fsyncs after every appended record. Off by default: an OS
	// that stays up preserves unsynced writes across a process crash, and
	// checkpoints always sync.
	SyncWrites bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 8 << 20
	}
	return o
}

// loc addresses a payload (encoded tree or triplet) inside one of the
// store's open files. Files are only closed and deleted at checkpoint,
// which rewrites every live loc first, so a loc is valid for as long as
// the index holds it.
type loc struct {
	f   *os.File
	off int64
	n   int
}

func (l loc) read() ([]byte, error) {
	buf := make([]byte, l.n)
	if _, err := l.f.ReadAt(buf, l.off); err != nil {
		return nil, err
	}
	return buf, nil
}

// fragMeta indexes one live fragment: its base content (the latest
// recPut) and the op lists of the updates committed since (recOps), which
// replay on top of it in order. opsBytes sums the op lists' sizes, for the
// fold-on-write rule in PutOps.
type fragMeta struct {
	version  uint64
	parent   xmltree.FragmentID
	tree     loc
	ops      []loc
	opsBytes int
}

type tripKey struct {
	id xmltree.FragmentID
	fp uint64
}

type tripMeta struct {
	version uint64
	enc     loc
}

// maxTripletEntries bounds the in-memory triplet index (and thereby the
// snapshot's triplet section). The sites' own caches hold 4096 entries;
// double that comfortably covers a standing query set.
const maxTripletEntries = 8192

// TripletEntry is one recovered triplet-cache entry: the encoded triplet a
// program (identified by its fingerprint) computed over a fragment at the
// given version.
type TripletEntry struct {
	Frag    xmltree.FragmentID
	Version uint64
	FP      uint64
	Enc     []byte
}

// Stats summarizes a store's on-disk state.
type Stats struct {
	LiveFragments  int
	DeadVersions   int
	CachedTriplets int
	Segments       int
	WALBytes       int64 // record bytes in segments newer than the snapshot
	SnapshotSeq    int64 // 0 when no snapshot exists yet
}

// Store is a site's durable fragment store. All methods are safe for
// concurrent use. Errors from the underlying files are sticky: after the
// first failed append every subsequent mutation returns the same error, so
// a half-written log is never extended.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	frags map[xmltree.FragmentID]*fragMeta
	dead  map[xmltree.FragmentID]uint64
	trips map[tripKey]*tripMeta

	files    map[int64]*os.File // open WAL segments by sequence number
	seq      int64              // active (highest) segment
	w        *os.File           // == files[seq]
	wOff     int64
	walBytes int64 // appended since the last checkpoint (replayed bytes count)

	snap     *os.File
	snapSeq  int64
	snapPath string

	// cpMu serializes checkpoints (background auto, explicit Checkpoint,
	// Close); it is always acquired before mu. cpInFlight marks a
	// scheduled background auto-checkpoint, so the threshold does not
	// spawn one goroutine per append while it waits.
	cpMu       sync.Mutex
	cpInFlight bool
	// afterCheckpointPhase1, when set (by tests), runs once a checkpoint
	// has rotated the WAL and copied the index, before it writes the
	// snapshot: the window in which appends land beside a checkpoint.
	afterCheckpointPhase1 func()

	scratch []byte
	err     error
	closed  bool
}

func segName(seq int64) string  { return fmt.Sprintf("wal-%016d.wal", seq) }
func snapName(seq int64) string { return fmt.Sprintf("snap-%016d.snap", seq) }

// Open opens (creating if necessary) the store in dir and recovers its
// state: the newest valid snapshot is loaded, segments at or after it are
// replayed, and a torn tail on the final segment is truncated away so
// appends resume cleanly.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:   dir,
		opts:  opts.withDefaults(),
		frags: make(map[xmltree.FragmentID]*fragMeta),
		dead:  make(map[xmltree.FragmentID]uint64),
		trips: make(map[tripKey]*tripMeta),
		files: make(map[int64]*os.File),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	segs := make(map[int64]string)
	var snapSeqs []int64
	for _, e := range entries {
		name := e.Name()
		var seq int64
		switch {
		case len(name) > 4 && name[len(name)-4:] == ".tmp":
			os.Remove(filepath.Join(dir, name)) // abandoned snapshot write
		case matchesSeq(name, "wal-", ".wal", &seq):
			segs[seq] = filepath.Join(dir, name)
		case matchesSeq(name, "snap-", ".snap", &seq):
			snapSeqs = append(snapSeqs, seq)
		}
	}

	// Newest valid snapshot wins; an invalid newer one (which atomic
	// rename should prevent — it indicates disk-level damage) falls back
	// to its predecessor rather than silently starting empty.
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })
	var snapErr error
	for _, seq := range snapSeqs {
		if err := s.loadSnapshot(filepath.Join(dir, snapName(seq)), seq); err != nil {
			if snapErr == nil {
				snapErr = err
			}
			s.resetState()
			continue
		}
		break
	}
	if s.snap == nil && snapErr != nil {
		return nil, snapErr
	}

	var segSeqs []int64
	for seq := range segs {
		if seq >= s.snapSeq {
			segSeqs = append(segSeqs, seq)
		} else {
			os.Remove(segs[seq]) // fully covered by the snapshot
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	for _, seq := range snapSeqs {
		if seq < s.snapSeq {
			os.Remove(filepath.Join(dir, snapName(seq)))
		}
	}
	for i, seq := range segSeqs {
		last := i == len(segSeqs)-1
		if err := s.replaySegment(segs[seq], seq, last); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	if s.w == nil {
		seq := s.snapSeq
		if seq == 0 {
			seq = 1
		}
		if err := s.createSegment(seq); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	return s, nil
}

func matchesSeq(name, prefix, suffix string, seq *int64) bool {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	var v int64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + int64(c-'0')
	}
	*seq = v
	return v > 0
}

func (s *Store) resetState() {
	if s.snap != nil {
		s.snap.Close()
		s.snap = nil
	}
	s.snapSeq, s.snapPath = 0, ""
	s.frags = make(map[xmltree.FragmentID]*fragMeta)
	s.dead = make(map[xmltree.FragmentID]uint64)
	s.trips = make(map[tripKey]*tripMeta)
}

func (s *Store) closeFiles() {
	for _, f := range s.files {
		f.Close()
	}
	if s.snap != nil {
		s.snap.Close()
	}
}

// loadSnapshot reads and applies one snapshot file. The file must carry
// the magic, a record stream, and a trailing footer whose count matches —
// anything else rejects the snapshot.
func (s *Store) loadSnapshot(path string, seq int64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	size := st.Size()
	if err := checkMagic(f, snapMagic); err != nil {
		f.Close()
		return err
	}
	off := int64(magicLen)
	var count uint64
	footer := false
	for {
		body, next, err := readRecord(f, off, size)
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
		}
		rec, err := decodeRecord(body)
		if err != nil {
			f.Close()
			return fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
		}
		if footer {
			f.Close()
			return fmt.Errorf("%w: snapshot %s has records after its footer", ErrCorrupt, filepath.Base(path))
		}
		if rec.kind == recSnapEnd {
			if rec.count != count {
				f.Close()
				return fmt.Errorf("%w: snapshot %s footer count %d, want %d", ErrCorrupt, filepath.Base(path), rec.count, count)
			}
			footer = true
			off = next
			continue
		}
		if err := s.applyRecord(rec, body, f, off+recordHeaderLen); err != nil {
			f.Close()
			return fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
		}
		count++
		off = next
	}
	if !footer {
		f.Close()
		return fmt.Errorf("%w: snapshot %s has no footer", ErrCorrupt, filepath.Base(path))
	}
	s.snap, s.snapSeq, s.snapPath = f, seq, path
	return nil
}

// replaySegment applies one WAL segment. On the last segment a torn tail
// is truncated in place (the crash shape); elsewhere it is corruption. The
// segment's file stays open: the index points into it, and the last one
// becomes the append target.
func (s *Store) replaySegment(path string, seq int64, last bool) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	size := st.Size()
	if err := checkMagic(f, walMagic); err != nil {
		if !last {
			f.Close()
			return err
		}
		// A crash during segment creation can leave a torn magic; rewrite
		// the segment as empty.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		size = magicLen
	}
	// truncateTail drops a genuinely torn tail so appends resume from the
	// last intact record; a bad record with valid records after it (or in
	// a non-final segment) is real corruption and must not be swallowed.
	truncateTail := func(off int64, cause error) (int64, error) {
		if !last || !tailIsTorn(f, off, size) {
			return 0, fmt.Errorf("store: segment %s: %w", filepath.Base(path), cause)
		}
		if terr := f.Truncate(off); terr != nil {
			return 0, fmt.Errorf("store: truncating torn tail: %w", terr)
		}
		return off, nil
	}
	off := int64(magicLen)
	for {
		body, next, err := readRecord(f, off, size)
		if err != nil {
			if err == io.EOF {
				break
			}
			if size, err = truncateTail(off, err); err != nil {
				f.Close()
				return err
			}
			break
		}
		rec, err := decodeRecord(body)
		if err == nil && rec.kind == recSnapEnd {
			// Never written to WALs.
			err = fmt.Errorf("%w: snapshot footer in a segment", ErrCorrupt)
		}
		if err != nil {
			if size, err = truncateTail(off, err); err != nil {
				f.Close()
				return err
			}
			break
		}
		if err := s.applyRecord(rec, body, f, off+recordHeaderLen); err != nil {
			// An intact record that does not fit the state before it is
			// corruption wherever it sits, never a torn tail.
			f.Close()
			return fmt.Errorf("store: segment %s: %w", filepath.Base(path), err)
		}
		off = next
	}
	s.files[seq] = f
	s.walBytes += size - magicLen
	if last {
		s.seq, s.w, s.wOff = seq, f, size
	}
	return nil
}

func checkMagic(f *os.File, magic string) error {
	var buf [magicLen]byte
	if _, err := f.ReadAt(buf[:], 0); err != nil {
		return fmt.Errorf("%w: missing magic", ErrCorrupt)
	}
	if string(buf[:]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[:])
	}
	return nil
}

// applyRecord folds one decoded record into the in-memory index. bodyOff
// is the file offset of the record body, so payload locs address the
// tree, op list or triplet bytes directly. An update to a fragment the
// index does not hold is corruption: the log never holds one.
func (s *Store) applyRecord(rec record, body []byte, f *os.File, bodyOff int64) error {
	payload := loc{f: f, off: bodyOff + int64(rec.payloadOff), n: len(body) - rec.payloadOff}
	switch rec.kind {
	case recPut:
		s.frags[rec.id] = &fragMeta{version: rec.version, parent: rec.parent, tree: payload}
		delete(s.dead, rec.id)
	case recOps:
		m, live := s.frags[rec.id]
		if !live {
			return fmt.Errorf("%w: update of fragment %d, which holds no content", ErrCorrupt, rec.id)
		}
		m.version = rec.version
		m.ops = append(m.ops, payload)
		m.opsBytes += payload.n
	case recDelete:
		delete(s.frags, rec.id)
		s.dead[rec.id] = rec.version
	case recVersion:
		if _, live := s.frags[rec.id]; !live {
			s.dead[rec.id] = rec.version
		}
	case recTriplet:
		s.insertTriplet(tripKey{id: rec.id, fp: rec.fp}, &tripMeta{version: rec.version, enc: payload})
	}
	return nil
}

// insertTriplet stores a triplet index entry under the size bound,
// dropping an arbitrary other entry when full (the WAL record stays; the
// next checkpoint reclaims the space).
func (s *Store) insertTriplet(k tripKey, m *tripMeta) {
	if _, exists := s.trips[k]; !exists && len(s.trips) >= maxTripletEntries {
		for victim := range s.trips {
			if victim != k {
				delete(s.trips, victim)
				break
			}
		}
	}
	s.trips[k] = m
}

// createSegment opens a fresh active segment with the given sequence.
func (s *Store) createSegment(seq int64) error {
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.files[seq] = f
	s.seq, s.w, s.wOff = seq, f, magicLen
	return nil
}

// appendLocked frames record bodies and appends them to the active
// segment in one write, rotating first if the segment is full, and
// returns the file offset of the first body (each next body starts
// recordHeaderLen past the end of the one before). Callers hold s.mu and
// have checked s.err.
func (s *Store) appendLocked(bodies ...[]byte) (*os.File, int64, error) {
	if s.wOff >= s.opts.SegmentBytes {
		if err := s.createSegment(s.seq + 1); err != nil {
			return nil, 0, err
		}
	}
	s.scratch = s.scratch[:0]
	for _, body := range bodies {
		s.scratch = frameRecord(s.scratch, body)
	}
	if _, err := s.w.WriteAt(s.scratch, s.wOff); err != nil {
		return nil, 0, fmt.Errorf("store: append: %w", err)
	}
	bodyOff := s.wOff + recordHeaderLen
	s.wOff += int64(len(s.scratch))
	s.walBytes += int64(len(s.scratch))
	if s.opts.SyncWrites {
		if err := s.w.Sync(); err != nil {
			return nil, 0, fmt.Errorf("store: sync: %w", err)
		}
	}
	return s.w, bodyOff, nil
}

func (s *Store) fail(err error) error {
	if err != nil && s.err == nil {
		s.err = err
	}
	return err
}

func (s *Store) checkLocked() error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	return s.err
}

// PutFragment logs the fragment's full content at the given version: an
// add, or a structural in-place mutation (split, merge); content updates
// use PutOps.
func (s *Store) PutFragment(f *frag.Fragment, version uint64) error {
	tree := xmltree.Encode(f.Root)
	body, payloadOff := putBody(f.ID, f.Parent, version, tree)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(); err != nil {
		return err
	}
	file, bodyOff, err := s.appendLocked(body)
	if err != nil {
		return s.fail(err)
	}
	s.frags[f.ID] = &fragMeta{
		version: version,
		parent:  f.Parent,
		tree:    loc{f: file, off: bodyOff + int64(payloadOff), n: len(tree)},
	}
	delete(s.dead, f.ID)
	s.maybeCheckpointLocked()
	return nil
}

// DeleteFragment logs a fragment's removal. Its version counter survives.
func (s *Store) DeleteFragment(id xmltree.FragmentID, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(); err != nil {
		return err
	}
	if _, _, err := s.appendLocked(deleteBody(id, version)); err != nil {
		return s.fail(err)
	}
	delete(s.frags, id)
	s.dead[id] = version
	s.maybeCheckpointLocked()
	return nil
}

// PutTriplets logs triplet-cache entries of one fragment version, one
// record each, in a single append, so a restart can warm-start the site's
// versioned triplet cache.
func (s *Store) PutTriplets(id xmltree.FragmentID, version uint64, trips []frag.Triplet) error {
	bodies := make([][]byte, len(trips))
	offs := make([]int, len(trips))
	for i, t := range trips {
		bodies[i], offs[i] = tripletBody(id, version, t.FP, t.Enc)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(); err != nil {
		return err
	}
	file, bodyOff, err := s.appendLocked(bodies...)
	if err != nil {
		return s.fail(err)
	}
	for i, t := range trips {
		s.insertTriplet(tripKey{id: id, fp: t.FP}, &tripMeta{
			version: version,
			enc:     loc{f: file, off: bodyOff + int64(offs[i]), n: len(t.Enc)},
		})
		bodyOff += int64(len(bodies[i])) + recordHeaderLen
	}
	s.maybeCheckpointLocked()
	return nil
}

// PutOps logs one committed content update: the op list that took f's
// tree to version. f is the fragment after the ops, which the store
// encodes in full instead (a recPut, "fold on write") when the op lists
// pending on its base have reached the base's encoded size, so a load
// never replays more bytes of ops than of tree.
func (s *Store) PutOps(f *frag.Fragment, version uint64, ops []xmltree.UpdateOp) error {
	// The caller serializes writes to f (it holds the fragment's write
	// lock), so the fold decision cannot go stale before the put.
	s.mu.Lock()
	m, live := s.frags[f.ID]
	fold := !live || m.opsBytes >= m.tree.n
	s.mu.Unlock()
	if fold {
		return s.PutFragment(f, version)
	}
	body, payloadOff := opsBody(f.ID, version, xmltree.AppendOps(nil, ops))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(); err != nil {
		return err
	}
	file, bodyOff, err := s.appendLocked(body)
	if err != nil {
		return s.fail(err)
	}
	// m is still f's entry: a checkpoint rebases an entry in place.
	m.version = version
	m.ops = append(m.ops, loc{f: file, off: bodyOff + int64(payloadOff), n: len(body) - payloadOff})
	m.opsBytes += len(body) - payloadOff
	s.maybeCheckpointLocked()
	return nil
}

// LoadFragment reads a live fragment's latest persisted content from disk:
// its base tree with the updates since replayed on top. ok is false for
// fragments the store does not (or no longer) hold. Content that does not
// decode, or an update that does not apply, is ErrCorrupt.
func (s *Store) LoadFragment(id xmltree.FragmentID) (*frag.Fragment, uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, ok := s.frags[id]
	if !ok {
		return nil, 0, false, nil
	}
	tree, ops, err := meta.read()
	if err != nil {
		return nil, 0, false, s.fail(fmt.Errorf("store: loading fragment %d: %w", id, err))
	}
	root, err := replay(id, tree, ops)
	if err != nil {
		return nil, 0, false, err
	}
	return &frag.Fragment{ID: id, Parent: meta.parent, Root: root}, meta.version, true, nil
}

// read returns the fragment's base tree bytes and its pending op lists.
func (m *fragMeta) read() (tree []byte, ops [][]byte, err error) {
	if tree, err = m.tree.read(); err != nil {
		return nil, nil, err
	}
	ops = make([][]byte, len(m.ops))
	for i, l := range m.ops {
		if ops[i], err = l.read(); err != nil {
			return nil, nil, err
		}
	}
	return tree, ops, nil
}

// replay decodes a base tree and applies the op lists to it in order.
// Every op list in the log applied to exactly this state when it was
// committed, so one that does not decode or apply is corruption, never a
// step to skip.
func replay(id xmltree.FragmentID, tree []byte, ops [][]byte) (*xmltree.Node, error) {
	root, err := xmltree.Decode(tree)
	if err != nil {
		return nil, fmt.Errorf("%w: fragment %d: %w", ErrCorrupt, id, err)
	}
	for i, buf := range ops {
		list, err := xmltree.DecodeOps(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: fragment %d, update %d: %w", ErrCorrupt, id, i, err)
		}
		for j, op := range list {
			if err := op.Apply(root); err != nil {
				return nil, fmt.Errorf("%w: fragment %d, update %d, op %d: %w", ErrCorrupt, id, i, j, err)
			}
		}
	}
	return root, nil
}

// Empty reports whether the store holds no state at all (a fresh
// directory, as opposed to one a previous deployment wrote).
func (s *Store) Empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frags) == 0 && len(s.dead) == 0 && len(s.trips) == 0
}

// FragmentIDs returns the live fragments' IDs in ascending order.
func (s *Store) FragmentIDs() []xmltree.FragmentID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]xmltree.FragmentID, 0, len(s.frags))
	for id := range s.frags {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Versions returns every fragment version counter the store knows — live
// fragments at their current version and removed fragments at their final
// one. Restoring all of them keeps version-keyed caches monotonic across
// arbitrarily many restarts.
func (s *Store) Versions() map[xmltree.FragmentID]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[xmltree.FragmentID]uint64, len(s.frags)+len(s.dead))
	for id, m := range s.frags {
		out[id] = m.version
	}
	for id, v := range s.dead {
		out[id] = v
	}
	return out
}

// Triplets returns the persisted triplet-cache entries whose fragment
// still exists at the recorded version — exactly the entries a restarted
// site may serve without risking a dead cache hit.
func (s *Store) Triplets() ([]TripletEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []TripletEntry
	for k, m := range s.trips {
		fm, live := s.frags[k.id]
		if !live || fm.version != m.version {
			continue
		}
		enc, err := m.enc.read()
		if err != nil {
			return nil, s.fail(fmt.Errorf("store: loading triplet for fragment %d: %w", k.id, err))
		}
		out = append(out, TripletEntry{Frag: k.id, Version: m.version, FP: k.fp, Enc: enc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frag != out[j].Frag {
			return out[i].Frag < out[j].Frag
		}
		return out[i].FP < out[j].FP
	})
	return out, nil
}

// Stats summarizes the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		LiveFragments:  len(s.frags),
		DeadVersions:   len(s.dead),
		CachedTriplets: len(s.trips),
		Segments:       len(s.files),
		WALBytes:       s.walBytes,
		SnapshotSeq:    s.snapSeq,
	}
}

// Err returns the store's sticky error, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// maybeCheckpointLocked schedules a background checkpoint once the WAL
// passes the threshold. Callers hold s.mu; the checkpoint goroutine only
// briefly re-acquires it for the index-copy and install phases, so
// neither appends (often made under the site lock) nor reads stall
// behind a multi-megabyte snapshot write.
func (s *Store) maybeCheckpointLocked() {
	if s.opts.CheckpointBytes < 0 || s.walBytes < s.opts.CheckpointBytes || s.cpInFlight {
		return
	}
	s.cpInFlight = true
	go func() {
		s.checkpoint(s.opts.CheckpointBytes)
		s.mu.Lock()
		s.cpInFlight = false
		s.mu.Unlock()
	}()
}

// Checkpoint writes a snapshot of the store's full state (live fragments,
// each one recPut of its current content with pending updates folded in;
// dead version counters; valid triplet entries) to a new file — written to
// a temp path, synced, then atomically renamed — and truncates the WAL:
// every older segment and snapshot is deleted, and appends continue in a
// fresh segment. Recovery after a checkpoint replays only the snapshot
// plus whatever the newer segments accumulate.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	err := s.checkLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.checkpoint(0)
}

// cpState is the phase-1 copy of the index a checkpoint streams from.
type cpState struct {
	fragIDs  []xmltree.FragmentID
	frags    map[xmltree.FragmentID]fragMeta
	deadIDs  []xmltree.FragmentID
	dead     map[xmltree.FragmentID]uint64
	tripKeys []tripKey
	trips    map[tripKey]tripMeta
}

// checkpoint runs the three-phase snapshot+truncate, serialized by cpMu.
// s.mu is held only for phase 1 (rotate the WAL and copy the index) and
// phase 3 (install the new locations and delete superseded files); the
// snapshot write itself streams without any store lock, so concurrent
// appends and loads proceed — they land in segments at or after the
// rotation point and are replayed on top of the snapshot at recovery.
// minWAL skips the run when the WAL shrank below the auto threshold
// before the scheduled goroutine got to it (0 = run unconditionally).
func (s *Store) checkpoint(minWAL int64) error {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()

	// Phase 1 — rotate and copy.
	s.mu.Lock()
	if err := s.checkLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.walBytes < minWAL {
		s.mu.Unlock()
		return nil
	}
	oldFiles := make(map[int64]*os.File, len(s.files))
	oldSet := make(map[*os.File]bool, len(s.files)+1)
	for seq, f := range s.files {
		oldFiles[seq] = f
		oldSet[f] = true
	}
	// Entries unchanged since the previous checkpoint live in its
	// snapshot, which phase 3 deletes too: they must be repointed as well.
	if s.snap != nil {
		oldSet[s.snap] = true
	}
	newSeq := s.seq + 1
	if err := s.createSegment(newSeq); err != nil {
		err = s.fail(err)
		s.mu.Unlock()
		return err
	}
	absorbed := s.walBytes
	st := cpState{
		frags: make(map[xmltree.FragmentID]fragMeta, len(s.frags)),
		dead:  make(map[xmltree.FragmentID]uint64, len(s.dead)),
		trips: make(map[tripKey]tripMeta),
	}
	for id, m := range s.frags {
		st.fragIDs = append(st.fragIDs, id)
		st.frags[id] = *m
	}
	for id, v := range s.dead {
		st.deadIDs = append(st.deadIDs, id)
		st.dead[id] = v
	}
	// Only triplets valid at the current fragment versions are carried
	// over; the rest are garbage-collected by this checkpoint.
	for k, m := range s.trips {
		if fm, live := s.frags[k.id]; live && fm.version == m.version {
			st.tripKeys = append(st.tripKeys, k)
			st.trips[k] = *m
		}
	}
	s.mu.Unlock()
	if s.afterCheckpointPhase1 != nil {
		s.afterCheckpointPhase1()
	}
	// Sorted, for a deterministic snapshot file.
	sort.Slice(st.fragIDs, func(i, j int) bool { return st.fragIDs[i] < st.fragIDs[j] })
	sort.Slice(st.deadIDs, func(i, j int) bool { return st.deadIDs[i] < st.deadIDs[j] })
	sort.Slice(st.tripKeys, func(i, j int) bool {
		if st.tripKeys[i].id != st.tripKeys[j].id {
			return st.tripKeys[i].id < st.tripKeys[j].id
		}
		return st.tripKeys[i].fp < st.tripKeys[j].fp
	})

	// Phase 2 — stream the snapshot, lock-free. The copied locs stay
	// readable throughout: only phase 3 of a checkpoint deletes files, and
	// cpMu guarantees no other checkpoint runs.
	f, snapPath, newFragLocs, newTripLocs, err := s.writeSnapshot(newSeq, &st)
	if err != nil {
		s.mu.Lock()
		if !s.closed {
			s.fail(err)
		}
		s.mu.Unlock()
		return err
	}

	// Phase 3 — install and truncate.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		// The renamed snapshot is valid on disk and the next Open will use
		// it; this instance just releases the handle.
		f.Close()
		return s.err
	}
	// A fragment whose base is still the one phase 1 copied rebases onto
	// the snapshot, which folded in the updates phase 1 saw; updates
	// appended since (in segments this checkpoint keeps) stay pending on
	// top. A fragment re-put since has its base in a kept segment already.
	for id, nl := range newFragLocs {
		old := st.frags[id]
		if cur, ok := s.frags[id]; ok && cur.tree == old.tree {
			cur.tree = nl
			cur.ops = cur.ops[len(old.ops):]
			cur.opsBytes -= old.opsBytes
		}
	}
	for k, nt := range newTripLocs {
		if cur, ok := s.trips[k]; ok && oldSet[cur.enc.f] && cur.version == st.trips[k].version {
			cur.enc = nt
		}
	}
	// Anything still pointing into a file that is about to be deleted was
	// not carried over (a stale triplet): drop it rather than dangle.
	for k, cur := range s.trips {
		if oldSet[cur.enc.f] {
			delete(s.trips, k)
		}
	}
	for seq, old := range oldFiles {
		old.Close()
		delete(s.files, seq)
		os.Remove(filepath.Join(s.dir, segName(seq)))
	}
	if s.snap != nil {
		s.snap.Close()
		os.Remove(s.snapPath)
	}
	syncDir(s.dir)
	s.snap, s.snapSeq, s.snapPath = f, newSeq, snapPath
	s.walBytes -= absorbed
	return nil
}

// writeSnapshot streams a phase-1 index copy into snap-<newSeq> (temp +
// fsync + atomic rename) and returns the open file plus the payload
// locations of everything it wrote. It takes no store lock.
func (s *Store) writeSnapshot(newSeq int64, st *cpState) (*os.File, string, map[xmltree.FragmentID]loc, map[tripKey]loc, error) {
	tmpPath := filepath.Join(s.dir, snapName(newSeq)+".tmp")
	f, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, "", nil, nil, fmt.Errorf("store: checkpoint: %w", err)
	}
	abort := func(err error) (*os.File, string, map[xmltree.FragmentID]loc, map[tripKey]loc, error) {
		f.Close()
		os.Remove(tmpPath)
		return nil, "", nil, nil, err
	}
	if _, err := f.WriteAt([]byte(snapMagic), 0); err != nil {
		return abort(fmt.Errorf("store: checkpoint: %w", err))
	}
	off := int64(magicLen)
	var count uint64
	var scratch []byte // local: s.scratch belongs to concurrent appends
	write := func(body []byte) (int64, error) {
		scratch = frameRecord(scratch[:0], body)
		if _, err := f.WriteAt(scratch, off); err != nil {
			return 0, fmt.Errorf("store: checkpoint: %w", err)
		}
		bodyOff := off + recordHeaderLen
		off += int64(len(scratch))
		count++
		return bodyOff, nil
	}

	// Live fragments: copied byte-for-byte from their locs, or — with
	// updates pending — decoded, replayed and encoded once, so the
	// snapshot holds exactly what PutFragment of the current tree writes.
	newFragLocs := make(map[xmltree.FragmentID]loc, len(st.fragIDs))
	for _, id := range st.fragIDs {
		m := st.frags[id]
		tree, ops, err := m.read()
		if err != nil {
			return abort(fmt.Errorf("store: checkpoint: fragment %d: %w", id, err))
		}
		if len(ops) > 0 {
			root, err := replay(id, tree, ops)
			if err != nil {
				return abort(fmt.Errorf("store: checkpoint: %w", err))
			}
			tree = xmltree.Encode(root)
		}
		body, payloadOff := putBody(id, m.parent, m.version, tree)
		bodyOff, err := write(body)
		if err != nil {
			return abort(err)
		}
		newFragLocs[id] = loc{f: f, off: bodyOff + int64(payloadOff), n: len(tree)}
	}
	// Version counters of removed fragments.
	for _, id := range st.deadIDs {
		if _, err := write(versionBody(id, st.dead[id])); err != nil {
			return abort(err)
		}
	}
	// Still-valid triplet entries.
	newTripLocs := make(map[tripKey]loc, len(st.tripKeys))
	for _, k := range st.tripKeys {
		m := st.trips[k]
		enc, err := m.enc.read()
		if err != nil {
			return abort(fmt.Errorf("store: checkpoint: triplet for fragment %d: %w", k.id, err))
		}
		body, payloadOff := tripletBody(k.id, m.version, k.fp, enc)
		bodyOff, err := write(body)
		if err != nil {
			return abort(err)
		}
		newTripLocs[k] = loc{f: f, off: bodyOff + int64(payloadOff), n: len(enc)}
	}

	if _, err := write(snapEndBody(count)); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("store: checkpoint: %w", err))
	}
	snapPath := filepath.Join(s.dir, snapName(newSeq))
	if err := os.Rename(tmpPath, snapPath); err != nil {
		return abort(fmt.Errorf("store: checkpoint: %w", err))
	}
	syncDir(s.dir)
	return f, snapPath, newFragLocs, newTripLocs, nil
}

// OpenSeedable opens dir for a deployment start. A store holding state
// but no snapshot is a seeding that crashed part-way (the post-seed
// checkpoint is the completion marker, and nothing is served before
// seeding completes), so its files are wiped — store files only — and the
// dir reopened empty. A completed store is returned as-is; the caller
// decides whether existing state is acceptable.
func OpenSeedable(dir string, opts Options) (*Store, error) {
	st, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if !st.Empty() && st.Stats().SnapshotSeq == 0 {
		st.Discard()
		if err := Wipe(dir); err != nil {
			return nil, err
		}
		return Open(dir, opts)
	}
	return st, nil
}

// Wipe removes the store-owned files (WAL segments, snapshots, temp
// files) from dir, leaving anything else — an operator may have pointed a
// data dir at a directory that also holds foreign files, which a reseed
// must never delete. The directory itself is kept.
func Wipe(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: wipe: %w", err)
	}
	var seq int64
	for _, e := range entries {
		name := e.Name()
		owned := matchesSeq(name, "wal-", ".wal", &seq) ||
			matchesSeq(name, "snap-", ".snap", &seq) ||
			(len(name) > 4 && name[len(name)-4:] == ".tmp")
		if !owned {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("store: wipe: %w", err)
		}
	}
	return nil
}

// syncDir best-effort fsyncs a directory so renames and creations are
// durable; not all platforms support it, so errors are ignored.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Discard closes the store's files WITHOUT checkpointing, leaving the
// on-disk state exactly as Open found it (plus any appends made through
// this instance). Refusal and error paths use it so inspecting a store
// never stamps it with a snapshot — Close's checkpoint doubles as the
// seed-completion marker, which a rejected store must not acquire.
func (s *Store) Discard() {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closeFiles()
		s.closed = true
	}
}

// Close checkpoints (when the store is healthy and the WAL holds anything)
// and closes every file. It waits for any in-flight background checkpoint
// first (via the checkpoint serialization). A store that is dropped
// without Close recovers via WAL replay instead — that is the crash path.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	dirty := s.err == nil && s.walBytes > 0
	s.mu.Unlock()
	var cpErr error
	if dirty {
		cpErr = s.checkpoint(1)
	} else {
		// Still serialize with a running background checkpoint so its
		// phase 3 never installs into a closed store's file set.
		s.cpMu.Lock()
		s.cpMu.Unlock() //nolint:staticcheck // barrier, not a critical section
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return cpErr
	}
	s.closeFiles()
	s.closed = true
	if cpErr != nil {
		return cpErr
	}
	return s.err
}
