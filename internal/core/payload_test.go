package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/boolexpr"
	"repro/internal/eval"
	"repro/internal/fixtures"
	"repro/internal/frag"
	"repro/internal/golden"
	"repro/internal/wire"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// payloadFixture is the fixed input the samples are built from: the
// paper's Fig. 2 fragmentation, a Boolean program and a selection program.
func payloadFixture() (*frag.Forest, *frag.SourceTree, *xpath.Program, *xpath.SelectProgram) {
	forest, _, err := fixtures.Fig2Forest()
	if err != nil {
		panic(err)
	}
	st, err := fixtures.Fig2SourceTree(forest)
	if err != nil {
		panic(err)
	}
	prog := xpath.MustCompileString(`//stock[code = "GOOG" && !(sell = "373")] || //market/name = "NYSE"`)
	sp, err := xpath.CompileSelectString(`//market[name = "NASDAQ"]//stock/code`)
	if err != nil {
		panic(err)
	}
	return forest, st, prog, sp
}

func fixtureTriplet(forest *frag.Forest, prog *xpath.Program, id xmltree.FragmentID) eval.Triplet {
	fr, _ := forest.Fragment(id)
	t, _, err := eval.BottomUp(fr.Root, prog)
	if err != nil {
		panic(err)
	}
	return t
}

var fixtureVecs = map[xmltree.FragmentID]eval.BoolVecs{
	3: {V: []bool{true, false, true, true, false, false, true, false, true}, DV: []bool{false, true}},
	1: {V: []bool{true}, DV: nil},
	2: {V: []bool{false, false, false, false, false, false, false, true}, DV: []bool{true, true, true}},
}

// fixtureTransfers is a visit-2 answer for two fragments: F1 forwards to
// F3 and F4 and carries candidates under two tags, F2 forwards nothing
// and found nothing.
func fixtureTransfers(paths bool) []fragTransfer {
	f1 := fragTransfer{id: 1, Transfer: eval.Transfer{
		Forward: map[xmltree.FragmentID]eval.ArrivalTransfer{
			4: {States: []eval.Arrival{{}, {States: 2}, {}, {States: 8, Sticky: 8}}, Sticky: []eval.Arrival{{}, {}, {}, {Sticky: 8}}},
			3: {States: []eval.Arrival{{}, {States: 6, Sticky: 2}}, Sticky: []eval.Arrival{{}, {Sticky: 1 << 40}}},
		},
		Cands: []eval.Candidates{
			{Tag: eval.Arrival{States: 2}, Count: 2},
			{Tag: eval.Arrival{States: 4, Sticky: 4}, Count: 4711},
		},
	}}
	if paths {
		f1.Cands[0].Paths = [][]int{{}, {300, 0}}
		f1.Cands[1].Count, f1.Cands[1].Paths = 1, [][]int{{0, 1, 2}}
	}
	f2 := fragTransfer{id: 2, Transfer: eval.Transfer{Forward: map[xmltree.FragmentID]eval.ArrivalTransfer{}}}
	return []fragTransfer{f1, f2}
}

func recodeSelectTransferResp(paths bool) func([]byte) ([]byte, error) {
	return func(buf []byte) ([]byte, error) {
		fts, err := decodeSelectTransferResp(buf, paths)
		if err != nil {
			return nil, err
		}
		return encodeSelectTransferResp(fts, paths), nil
	}
}

var payloadCodecs = []golden.Codec{
	{Name: "evalqual_req", Kinds: []string{KindEvalQual}, Sample: func() []byte {
		_, _, prog, _ := payloadFixture()
		return encodeEvalQualReq(evalQualReq{prog: prog, ids: []xmltree.FragmentID{2, 3}, fp: prog.Fingerprint()})
	}, Recode: recodeEvalQualReq},
	{Name: "evalqual_keep_req", Kinds: []string{KindEvalQualKeep}, Sample: func() []byte {
		_, st, prog, _ := payloadFixture()
		return encodeEvalQualReq(evalQualReq{prog: prog, ids: []xmltree.FragmentID{0}, runKey: "run-0000000007", st: st})
	}, Recode: recodeEvalQualReq},
	{Name: "evalqual_resp", Kinds: []string{KindEvalQual}, Sample: func() []byte {
		forest, _, prog, _ := payloadFixture()
		return encodeEvalQualResp([]fragTriplet{
			{id: 0, enc: fixtureTriplet(forest, prog, 0).Encode()},
			{id: 2, enc: fixtureTriplet(forest, prog, 2).Encode()},
		})
	}, Recode: func(buf []byte) ([]byte, error) {
		fts, err := decodeEvalQualResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeEvalQualResp(fts), nil
	}},
	{Name: "resolve_req", Kinds: []string{KindResolve}, Sample: func() []byte {
		return encodeResolveReq(resolveReq{runKey: "run-0000000007", id: 3})
	}, Recode: recodeResolveReq},
	{Name: "resolve_arrival_req", Kinds: []string{KindResolve}, Sample: func() []byte {
		_, st, prog, _ := payloadFixture()
		return encodeResolveReq(resolveReq{id: 1, prog: prog, st: st})
	}, Recode: recodeResolveReq},
	{Name: "resolve_resp", Kinds: []string{KindResolve}, Sample: func() []byte {
		forest, _, prog, _ := payloadFixture()
		return encodeResolveResp(fixtureTriplet(forest, prog, 1), resolveStats{simNanos: 1234567, bytes: 890, messages: 4, steps: 321})
	}, Recode: func(buf []byte) ([]byte, error) {
		t, st, err := decodeResolveResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeResolveResp(t, st), nil
	}},
	{Name: "fetch_req", Kinds: []string{KindFetchFragments}, Sample: func() []byte {
		return encodeFetchReq([]xmltree.FragmentID{0, 3, 200})
	}, Recode: func(buf []byte) ([]byte, error) {
		ids, err := decodeFetchReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeFetchReq(ids), nil
	}},
	{Name: "fetch_resp", Kinds: []string{KindFetchFragments}, Sample: func() []byte {
		forest, _, _, _ := payloadFixture()
		f0, _ := forest.Fragment(0)
		f2, _ := forest.Fragment(2)
		return encodeFetchResp([]*frag.Fragment{f0, f2})
	}, Recode: func(buf []byte) ([]byte, error) {
		frs, err := decodeFetchResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeFetchResp(frs), nil
	}},
	{Name: "select_req", Kinds: []string{KindSelectTransfer}, Sample: func() []byte {
		_, _, _, sp := payloadFixture()
		return encodeSelectTransferReq(encodeSelectProgram(sp), selectTransferReq{
			paths: true,
			frags: []fragDomain{{id: 1, domain: eval.ArrivalDomain(sp)}, {id: 2, domain: eval.Arrival{States: 5, Sticky: 4}}},
			vecs:  fixtureVecs,
		})
	}, Recode: func(buf []byte) ([]byte, error) {
		sp, q, err := decodeSelectTransferReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeSelectTransferReq(encodeSelectProgram(sp), q), nil
	}},
	{Name: "select_resp", Kinds: []string{KindSelectTransfer}, Sample: func() []byte {
		return encodeSelectTransferResp(fixtureTransfers(true), true)
	}, Recode: recodeSelectTransferResp(true)},
	{Name: "count_resp", Kinds: []string{KindSelectTransfer}, Sample: func() []byte {
		return encodeSelectTransferResp(fixtureTransfers(false), false)
	}, Recode: recodeSelectTransferResp(false)},
}

func recodeResolveReq(buf []byte) ([]byte, error) {
	q, err := decodeResolveReq(buf)
	if err != nil {
		return nil, err
	}
	return encodeResolveReq(q), nil
}

func recodeEvalQualReq(buf []byte) ([]byte, error) {
	q, err := decodeEvalQualReq(buf)
	if err != nil {
		return nil, err
	}
	return encodeEvalQualReq(q), nil
}

// unpinnedKinds are the declared kinds without a codec, and why.
var unpinnedKinds = map[string]string{
	KindCleanup: "its payload is the raw run key",
}

// TestPayloadGoldens pins every payload format of the ParBoX protocol to
// the bytes recorded before the codecs moved onto internal/wire, and
// every kind of the package's table to a codec.
func TestPayloadGoldens(t *testing.T) {
	golden.Pin(t, payloadCodecs)
	golden.Covers(t, kinds, payloadCodecs, unpinnedKinds)
}

// FuzzPayloadDecoders drives every payload decoder of the ParBoX protocol
// with arbitrary bytes (see golden.Fuzz for the properties). A nested
// program, source tree, fragment or triplet fails with its own codec's
// sentinel.
func FuzzPayloadDecoders(f *testing.F) {
	golden.Fuzz(f, payloadCodecs, ErrBadMessage, xpath.ErrBadProgram, frag.ErrBadSourceTree, xmltree.ErrBadTree, boolexpr.ErrBadFormula)
}

// TestDecodeSelectProgramRejectsBadChainTests: a chain step carries Test+1
// on the wire, so only 0 ("no guard") up to the program's subquery count
// name something. A raw 0xFFFFFFFE used to decode to Test = -3, which the
// selection automaton reads as "no guard".
func TestDecodeSelectProgramRejectsBadChainTests(t *testing.T) {
	_, _, prog, _ := payloadFixture()
	encode := func(rawTest uint64) []byte {
		dst := wire.AppendBytes(nil, prog.Encode())
		dst = append(dst, 1, byte(xpath.SChild)) // one step
		return binary.AppendUvarint(dst, rawTest)
	}
	for _, raw := range []uint64{0, 1, uint64(len(prog.Subs))} {
		sp, err := decodeSelectProgram(encode(raw))
		if err != nil || sp.Chain[0].Test != int32(raw)-1 {
			t.Errorf("raw test %d: %v, %v", raw, sp, err)
		}
	}
	for _, raw := range []uint64{uint64(len(prog.Subs)) + 1, 0xFFFFFFFE, 0xFFFFFFFF, 1 << 32, ^uint64(0)} {
		if sp, err := decodeSelectProgram(encode(raw)); !errors.Is(err, ErrBadMessage) {
			t.Errorf("raw test %#x accepted: %+v, %v", raw, sp, err)
		}
	}
}
