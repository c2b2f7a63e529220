// Package core implements the paper's distributed query evaluation
// algorithms over the cluster substrate:
//
//   - ParBoX           (Section 3: partial evaluation, one visit per site)
//   - NaiveCentralized (Section 3: ship all fragments to the coordinator)
//   - NaiveDistributed (Section 3: distributed sequential traversal)
//   - HybridParBoX     (Section 4: tipping-point switch)
//   - FullDistParBoX   (Section 4: distributed evalST, no coordinator
//     bottleneck, no variables on the wire)
//   - LazyParBoX       (Section 4: level-by-level evaluation)
//
// All site-side behaviour is expressed as message handlers registered with
// RegisterHandlers, so the same algorithms run unchanged over the
// in-process simulated LAN and over real TCP sites.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/boolexpr"
	"repro/internal/eval"
	"repro/internal/frag"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Message kinds of the ParBoX protocol.
const (
	// KindEvalQual asks a site to run Procedure evalQual: evaluate the
	// query program over a list of locally stored fragments and return the
	// triplets (stage 2 of ParBoX).
	KindEvalQual = "parbox.evalQual"
	// KindEvalQualKeep is KindEvalQual plus caching of the triplets (and
	// the source tree) at the site under a run key, as FullDistParBoX
	// requires for its distributed third phase.
	KindEvalQualKeep = "parbox.evalQualKeep"
	// KindResolve asks a site to produce the fully resolved
	// (variable-free) triplet of one fragment, recursively gathering its
	// sub-fragments' resolved triplets from their sites (Procedure
	// evalDistrST; see DESIGN.md on the pull-vs-push inversion).
	KindResolve = "parbox.resolve"
	// KindCleanup drops the cached state of a run key.
	KindCleanup = "parbox.cleanup"
	// KindFetchFragments ships whole fragments to the caller
	// (NaiveCentralized).
	KindFetchFragments = "parbox.fetchFragments"
	// KindEvalFragDist evaluates one fragment and recursively descends
	// into its sub-fragments' sites (NaiveDistributed).
	KindEvalFragDist = "parbox.evalFragDist"
)

// ErrBadMessage is wrapped by all payload decoding failures.
var ErrBadMessage = errors.New("core: malformed message payload")

// --- small codec helpers -------------------------------------------------

type reader struct {
	buf []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrBadMessage, r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return nil, fmt.Errorf("%w: length %d exceeds buffer", ErrBadMessage, n)
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

func (r *reader) done() error {
	if r.pos != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(r.buf)-r.pos)
	}
	return nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendFragIDs(dst []byte, ids []xmltree.FragmentID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(uint32(id)))
	}
	return dst
}

func (r *reader) fragIDs() ([]xmltree.FragmentID, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos)+1 {
		return nil, fmt.Errorf("%w: fragment count %d exceeds buffer", ErrBadMessage, n)
	}
	ids := make([]xmltree.FragmentID, n)
	for i := range ids {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ids[i] = xmltree.FragmentID(uint32(v))
	}
	return ids, nil
}

// --- evalQual ------------------------------------------------------------

// evalQualReq: program, fragment IDs, (for the Keep variant) the run key
// and encoded source tree, and the program fingerprint (0 when the caller
// does not want the site's versioned triplet cache consulted).
type evalQualReq struct {
	prog   *xpath.Program
	ids    []xmltree.FragmentID
	runKey string
	st     *frag.SourceTree // only for KindEvalQualKeep
	fp     uint64           // nonzero enables the site triplet cache
}

func encodeEvalQualReq(q evalQualReq) []byte {
	dst := appendBytes(nil, q.prog.Encode())
	dst = appendFragIDs(dst, q.ids)
	dst = appendBytes(dst, []byte(q.runKey))
	if q.st != nil {
		dst = appendBytes(dst, q.st.Encode())
	} else {
		dst = appendBytes(dst, nil)
	}
	return binary.AppendUvarint(dst, q.fp)
}

func decodeEvalQualReq(buf []byte) (evalQualReq, error) {
	r := &reader{buf: buf}
	var q evalQualReq
	pb, err := r.bytes()
	if err != nil {
		return q, err
	}
	if q.prog, err = xpath.DecodeProgram(pb); err != nil {
		return q, err
	}
	if q.ids, err = r.fragIDs(); err != nil {
		return q, err
	}
	rk, err := r.bytes()
	if err != nil {
		return q, err
	}
	q.runKey = string(rk)
	stb, err := r.bytes()
	if err != nil {
		return q, err
	}
	if len(stb) > 0 {
		if q.st, err = frag.DecodeSourceTree(stb); err != nil {
			return q, err
		}
	}
	if q.fp, err = r.uvarint(); err != nil {
		return q, err
	}
	return q, r.done()
}

// evalQualResp: per fragment, its ID and encoded triplet. A fragTriplet
// carries the triplet in its interchange form only: a site encodes straight
// from the arena bottomUp ran in (or hands back memoized bytes on a cache
// hit), and the coordinator decodes the bytes into its solve arena at
// gather — the scatter dec callbacks run concurrently, one arena must not.
type fragTriplet struct {
	id  xmltree.FragmentID
	enc []byte
}

func encodeEvalQualResp(fts []fragTriplet) []byte {
	size := boolexpr.UvarintLen(uint64(len(fts)))
	for i := range fts {
		n := len(fts[i].enc)
		size += boolexpr.UvarintLen(uint64(uint32(fts[i].id))) + boolexpr.UvarintLen(uint64(n)) + n
	}
	dst := make([]byte, 0, size)
	dst = binary.AppendUvarint(dst, uint64(len(fts)))
	for i := range fts {
		dst = binary.AppendUvarint(dst, uint64(uint32(fts[i].id)))
		dst = appendBytes(dst, fts[i].enc)
	}
	return dst
}

// decodeEvalQualResp splits an evalQual response into its per-fragment
// encodings, which alias buf. The formulas themselves are validated when
// the caller interns them (internTriplets).
func decodeEvalQualResp(buf []byte) ([]fragTriplet, error) {
	r := &reader{buf: buf}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf))+1 {
		return nil, fmt.Errorf("%w: triplet count %d exceeds buffer", ErrBadMessage, n)
	}
	fts := make([]fragTriplet, 0, n)
	for i := uint64(0); i < n; i++ {
		idRaw, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		tb, err := r.bytes()
		if err != nil {
			return nil, err
		}
		fts = append(fts, fragTriplet{id: xmltree.FragmentID(uint32(idRaw)), enc: tb})
	}
	return fts, r.done()
}

// internTriplets decodes a gathered round's triplets into the arena a and
// files them under their fragment ids in into, so the solve that follows
// runs in a with no further copying.
func internTriplets(a *boolexpr.Arena, perSite [][]fragTriplet, into map[xmltree.FragmentID]eval.Triplet) error {
	for _, fts := range perSite {
		for _, ft := range fts {
			t, err := eval.DecodeTripletInto(a, ft.enc)
			if err != nil {
				return fmt.Errorf("core: fragment %d: %w", ft.id, err)
			}
			into[ft.id] = t
		}
	}
	return nil
}

// --- resolve ---------------------------------------------------------------

// resolveReq: run key plus the fragment to resolve.
func encodeResolveReq(runKey string, id xmltree.FragmentID) []byte {
	dst := appendBytes(nil, []byte(runKey))
	return binary.AppendUvarint(dst, uint64(uint32(id)))
}

func decodeResolveReq(buf []byte) (string, xmltree.FragmentID, error) {
	r := &reader{buf: buf}
	rk, err := r.bytes()
	if err != nil {
		return "", 0, err
	}
	idRaw, err := r.uvarint()
	if err != nil {
		return "", 0, err
	}
	return string(rk), xmltree.FragmentID(uint32(idRaw)), r.done()
}

// resolveStats is the accounting a recursive computation reports upward:
// the modeled time of the whole sub-computation (for the deterministic
// parallel makespan) and the nested traffic, which the coordinator cannot
// observe directly because sites call each other.
type resolveStats struct {
	simNanos int64
	bytes    int64
	messages int64
	steps    int64
}

// resolveResp: the resolved triplet plus the sub-computation's stats. The
// decoded triplet lives in a fresh arena of its own: handleResolve decodes
// its children's responses concurrently.
func encodeResolveResp(t eval.Triplet, st resolveStats) []byte {
	dst := binary.AppendUvarint(nil, uint64(st.simNanos))
	dst = binary.AppendUvarint(dst, uint64(st.bytes))
	dst = binary.AppendUvarint(dst, uint64(st.messages))
	dst = binary.AppendUvarint(dst, uint64(st.steps))
	return appendBytes(dst, t.Encode())
}

func decodeResolveResp(buf []byte) (eval.Triplet, resolveStats, error) {
	r := &reader{buf: buf}
	var st resolveStats
	sim, err := r.uvarint()
	if err != nil {
		return eval.Triplet{}, st, err
	}
	st.simNanos = int64(sim)
	b, err := r.uvarint()
	if err != nil {
		return eval.Triplet{}, st, err
	}
	st.bytes = int64(b)
	m, err := r.uvarint()
	if err != nil {
		return eval.Triplet{}, st, err
	}
	st.messages = int64(m)
	sp, err := r.uvarint()
	if err != nil {
		return eval.Triplet{}, st, err
	}
	st.steps = int64(sp)
	tb, err := r.bytes()
	if err != nil {
		return eval.Triplet{}, st, err
	}
	t, err := eval.DecodeTriplet(tb)
	if err != nil {
		return eval.Triplet{}, st, err
	}
	return t, st, r.done()
}

// --- fetchFragments --------------------------------------------------------

func encodeFetchReq(ids []xmltree.FragmentID) []byte {
	return appendFragIDs(nil, ids)
}

func decodeFetchReq(buf []byte) ([]xmltree.FragmentID, error) {
	r := &reader{buf: buf}
	ids, err := r.fragIDs()
	if err != nil {
		return nil, err
	}
	return ids, r.done()
}

// fetchResp: per fragment: ID, parent+1, encoded subtree.
func encodeFetchResp(frs []*frag.Fragment) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(frs)))
	for _, fr := range frs {
		dst = binary.AppendUvarint(dst, uint64(uint32(fr.ID)))
		dst = binary.AppendUvarint(dst, uint64(fr.Parent+1))
		dst = appendBytes(dst, xmltree.Encode(fr.Root))
	}
	return dst
}

func decodeFetchResp(buf []byte) ([]*frag.Fragment, error) {
	r := &reader{buf: buf}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf))+1 {
		return nil, fmt.Errorf("%w: fragment count %d exceeds buffer", ErrBadMessage, n)
	}
	frs := make([]*frag.Fragment, 0, n)
	for i := uint64(0); i < n; i++ {
		idRaw, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		parentRaw, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		tb, err := r.bytes()
		if err != nil {
			return nil, err
		}
		root, err := xmltree.Decode(tb)
		if err != nil {
			return nil, err
		}
		frs = append(frs, &frag.Fragment{
			ID:     xmltree.FragmentID(uint32(idRaw)),
			Parent: xmltree.FragmentID(uint32(parentRaw)) - 1,
			Root:   root,
		})
	}
	return frs, r.done()
}

// --- evalFragDist ------------------------------------------------------------

// evalFragDistReq: program, source tree, fragment to evaluate.
func encodeEvalFragDistReq(prog *xpath.Program, st *frag.SourceTree, id xmltree.FragmentID) []byte {
	dst := appendBytes(nil, prog.Encode())
	dst = appendBytes(dst, st.Encode())
	return binary.AppendUvarint(dst, uint64(uint32(id)))
}

func decodeEvalFragDistReq(buf []byte) (*xpath.Program, *frag.SourceTree, xmltree.FragmentID, error) {
	r := &reader{buf: buf}
	pb, err := r.bytes()
	if err != nil {
		return nil, nil, 0, err
	}
	prog, err := xpath.DecodeProgram(pb)
	if err != nil {
		return nil, nil, 0, err
	}
	stb, err := r.bytes()
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := frag.DecodeSourceTree(stb)
	if err != nil {
		return nil, nil, 0, err
	}
	idRaw, err := r.uvarint()
	if err != nil {
		return nil, nil, 0, err
	}
	return prog, st, xmltree.FragmentID(uint32(idRaw)), r.done()
}
