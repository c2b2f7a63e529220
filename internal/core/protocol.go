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
	"repro/internal/wire"
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

// ErrBadMessage is wrapped by every failure to read this package's own
// payload framing. A program, source tree, fragment or triplet nested in a
// payload fails with its own codec's sentinel instead.
var ErrBadMessage = errors.New("core: malformed message payload")

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
	dst := wire.AppendBytes(nil, q.prog.Encode())
	dst = xmltree.AppendFragmentIDs(dst, q.ids)
	dst = wire.AppendString(dst, q.runKey)
	if q.st != nil {
		dst = wire.AppendBytes(dst, q.st.Encode())
	} else {
		dst = wire.AppendBytes(dst, nil)
	}
	return binary.AppendUvarint(dst, q.fp)
}

func decodeEvalQualReq(buf []byte) (q evalQualReq, err error) {
	r := wire.NewReader(buf, ErrBadMessage)
	pb := r.Bytes()
	q.ids = xmltree.ReadFragmentIDs(&r)
	q.runKey = r.String()
	stb := r.Bytes()
	q.fp = r.Uvarint()
	if err := r.Done(); err != nil {
		return q, err
	}
	if q.prog, err = xpath.DecodeProgram(pb); err != nil {
		return q, err
	}
	if len(stb) > 0 {
		q.st, err = frag.DecodeSourceTree(stb)
	}
	return q, err
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
	size := wire.UvarintLen(uint64(len(fts)))
	for i := range fts {
		n := len(fts[i].enc)
		size += wire.UvarintLen(uint64(uint32(fts[i].id))) + wire.UvarintLen(uint64(n)) + n
	}
	dst := make([]byte, 0, size)
	dst = binary.AppendUvarint(dst, uint64(len(fts)))
	for i := range fts {
		dst = xmltree.AppendFragmentID(dst, fts[i].id)
		dst = wire.AppendBytes(dst, fts[i].enc)
	}
	return dst
}

// decodeEvalQualResp splits an evalQual response into its per-fragment
// encodings, which alias buf. The formulas themselves are validated when
// the caller interns them (internTriplets).
func decodeEvalQualResp(buf []byte) ([]fragTriplet, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	fts := make([]fragTriplet, r.Count(2))
	for i := range fts {
		fts[i].id = xmltree.ReadFragmentID(&r)
		fts[i].enc = r.Bytes()
	}
	return fts, r.Done()
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
	return xmltree.AppendFragmentID(wire.AppendString(nil, runKey), id)
}

func decodeResolveReq(buf []byte) (string, xmltree.FragmentID, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	runKey := r.String()
	id := xmltree.ReadFragmentID(&r)
	return runKey, id, r.Done()
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
	return wire.AppendBytes(dst, t.Encode())
}

func decodeResolveResp(buf []byte) (eval.Triplet, resolveStats, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	var st resolveStats
	st.simNanos = int64(r.Uvarint())
	st.bytes = int64(r.Uvarint())
	st.messages = int64(r.Uvarint())
	st.steps = int64(r.Uvarint())
	tb := r.Bytes()
	if err := r.Done(); err != nil {
		return eval.Triplet{}, st, err
	}
	t, err := eval.DecodeTriplet(tb)
	return t, st, err
}

// --- fetchFragments --------------------------------------------------------

func encodeFetchReq(ids []xmltree.FragmentID) []byte {
	return xmltree.AppendFragmentIDs(nil, ids)
}

func decodeFetchReq(buf []byte) ([]xmltree.FragmentID, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	ids := xmltree.ReadFragmentIDs(&r)
	return ids, r.Done()
}

// fetchResp: per fragment: ID, parent+1, encoded subtree.
func encodeFetchResp(frs []*frag.Fragment) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(frs)))
	for _, fr := range frs {
		dst = xmltree.AppendFragmentID(dst, fr.ID)
		dst = xmltree.AppendFragmentID(dst, fr.Parent+1)
		dst = wire.AppendBytes(dst, xmltree.Encode(fr.Root))
	}
	return dst
}

func decodeFetchResp(buf []byte) ([]*frag.Fragment, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	n := r.Count(3)
	frs := make([]*frag.Fragment, 0, n)
	for i := 0; i < n; i++ {
		fr := &frag.Fragment{ID: xmltree.ReadFragmentID(&r)}
		fr.Parent = xmltree.ReadFragmentID(&r) - 1
		tb := r.Bytes()
		if r.Err() != nil {
			break
		}
		var err error
		if fr.Root, err = xmltree.Decode(tb); err != nil {
			return nil, err
		}
		frs = append(frs, fr)
	}
	return frs, r.Done()
}

// --- evalFragDist ------------------------------------------------------------

// evalFragDistReq: program, source tree, fragment to evaluate.
func encodeEvalFragDistReq(prog *xpath.Program, st *frag.SourceTree, id xmltree.FragmentID) []byte {
	dst := wire.AppendBytes(nil, prog.Encode())
	dst = wire.AppendBytes(dst, st.Encode())
	return xmltree.AppendFragmentID(dst, id)
}

func decodeEvalFragDistReq(buf []byte) (*xpath.Program, *frag.SourceTree, xmltree.FragmentID, error) {
	r := wire.NewReader(buf, ErrBadMessage)
	pb, stb := r.Bytes(), r.Bytes()
	id := xmltree.ReadFragmentID(&r)
	if err := r.Done(); err != nil {
		return nil, nil, 0, err
	}
	prog, err := xpath.DecodeProgram(pb)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := frag.DecodeSourceTree(stb)
	if err != nil {
		return nil, nil, 0, err
	}
	return prog, st, id, nil
}
