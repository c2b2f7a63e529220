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

var fixtureForward = map[xmltree.FragmentID]eval.Arrival{
	3: {States: 6, Sticky: 2},
	1: {States: 1 << 40, Sticky: 1 << 40},
}

var payloadCodecs = []golden.Codec{
	{Name: "evalqual_req", Sample: func() []byte {
		_, _, prog, _ := payloadFixture()
		return encodeEvalQualReq(evalQualReq{prog: prog, ids: []xmltree.FragmentID{2, 3}, fp: prog.Fingerprint()})
	}, Recode: recodeEvalQualReq},
	{Name: "evalqual_keep_req", Sample: func() []byte {
		_, st, prog, _ := payloadFixture()
		return encodeEvalQualReq(evalQualReq{prog: prog, ids: []xmltree.FragmentID{0}, runKey: "run-0000000007", st: st})
	}, Recode: recodeEvalQualReq},
	{Name: "evalqual_resp", Sample: func() []byte {
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
	{Name: "resolve_req", Sample: func() []byte {
		return encodeResolveReq("run-0000000007", 3)
	}, Recode: func(buf []byte) ([]byte, error) {
		rk, id, err := decodeResolveReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeResolveReq(rk, id), nil
	}},
	{Name: "resolve_resp", Sample: func() []byte {
		forest, _, prog, _ := payloadFixture()
		return encodeResolveResp(fixtureTriplet(forest, prog, 1), resolveStats{simNanos: 1234567, bytes: 890, messages: 4, steps: 321})
	}, Recode: func(buf []byte) ([]byte, error) {
		t, st, err := decodeResolveResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeResolveResp(t, st), nil
	}},
	{Name: "fetch_req", Sample: func() []byte {
		return encodeFetchReq([]xmltree.FragmentID{0, 3, 200})
	}, Recode: func(buf []byte) ([]byte, error) {
		ids, err := decodeFetchReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeFetchReq(ids), nil
	}},
	{Name: "fetch_resp", Sample: func() []byte {
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
	{Name: "evalfragdist_req", Sample: func() []byte {
		_, st, prog, _ := payloadFixture()
		return encodeEvalFragDistReq(prog, st, 1)
	}, Recode: func(buf []byte) ([]byte, error) {
		prog, st, id, err := decodeEvalFragDistReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeEvalFragDistReq(prog, st, id), nil
	}},
	{Name: "select_req", Sample: func() []byte {
		_, _, _, sp := payloadFixture()
		return encodeSelectReq(encodeSelectProgram(sp), 1, eval.Arrival{States: 5, Sticky: 4}, fixtureVecs)
	}, Recode: func(buf []byte) ([]byte, error) {
		sp, id, arr, vecs, err := decodeSelectReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeSelectReq(encodeSelectProgram(sp), id, arr, vecs), nil
	}},
	{Name: "select_resp", Sample: func() []byte {
		return encodeSelectResp([][]int{{}, {0, 1, 2}, {300, 0}}, fixtureForward)
	}, Recode: func(buf []byte) ([]byte, error) {
		paths, fwd, err := decodeSelectResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeSelectResp(paths, fwd), nil
	}},
	{Name: "count_resp", Sample: func() []byte {
		return encodeCountResp(4711, fixtureForward)
	}, Recode: func(buf []byte) ([]byte, error) {
		n, fwd, err := decodeCountResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeCountResp(n, fwd), nil
	}},
}

func recodeEvalQualReq(buf []byte) ([]byte, error) {
	q, err := decodeEvalQualReq(buf)
	if err != nil {
		return nil, err
	}
	return encodeEvalQualReq(q), nil
}

// TestPayloadGoldens pins every payload format of the ParBoX protocol to
// the bytes recorded before the codecs moved onto internal/wire.
func TestPayloadGoldens(t *testing.T) {
	golden.Pin(t, payloadCodecs)
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
