package views

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

var (
	fixtureProg    = xpath.MustCompileString(`//stock[code = "GOOG"] && !(//sell = "373")`).Encode()
	fixtureTriplet = []byte{2, 0, 2, 3, 1, 0, 2, 1, 0, 2, 0, 2, 3, 2, 1} // triplets are opaque bytes at this layer
	fixtureOps     = []UpdateOp{
		{Op: OpInsert, Path: []int{1, 0, 300}, Label: "stock", Text: "né"},
		{Op: OpDelete, Path: []int{}},
		{Op: OpSetText, Path: []int{2}, Text: "373"},
	}
)

var payloadCodecs = []golden.Codec{
	{Name: "applyupdate_req", Kinds: []string{KindApplyUpdate}, Sample: func() []byte {
		return encodeApplyUpdateReq(fixtureProg, 3, fixtureOps)
	}, Recode: func(buf []byte) ([]byte, error) {
		prog, id, ops, err := decodeApplyUpdateReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeApplyUpdateReq(prog, id, ops), nil
	}},
	{Name: "tripletsize_resp", Kinds: []string{KindApplyUpdate, KindAdopt, KindMerge}, Sample: func() []byte { // applyUpdate, adopt and merge all answer with it
		return encodeTripletSizeResp(fixtureTriplet, 10007)
	}, Recode: func(buf []byte) ([]byte, error) {
		t, size, err := decodeTripletSizeResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeTripletSizeResp(t, size), nil
	}},
	{Name: "register_req", Kinds: []string{KindRegisterProg}, Sample: func() []byte {
		return encodeRegisterReq(fixtureProg, []xmltree.FragmentID{0, 2, 130})
	}, Recode: func(buf []byte) ([]byte, error) {
		prog, ids, err := decodeRegisterReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeRegisterReq(prog, ids), nil
	}},
	{Name: "register_resp", Kinds: []string{KindRegisterProg}, Sample: func() []byte {
		return encodeRegisterResp([]RegItem{
			{Frag: 0, Version: 1, Triplet: fixtureTriplet},
			{Frag: 130, Version: 1 << 33, Triplet: nil},
		})
	}, Recode: func(buf []byte) ([]byte, error) {
		items, err := decodeRegisterResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeRegisterResp(items), nil
	}},
	{Name: "delta", Kinds: []string{KindRegisterProg}, Sample: func() []byte {
		return Delta{Frag: 3, Version: 42, FP: 0xfeedfacecafebeef, FlipV: 1, FlipCV: 0, FlipDV: 1 << 63, Triplet: fixtureTriplet}.Encode()
	}, Recode: func(buf []byte) ([]byte, error) {
		d, err := DecodeDelta(buf)
		if err != nil {
			return nil, err
		}
		return d.Encode(), nil
	}},
	{Name: "split_req", Kinds: []string{KindSplit}, Sample: func() []byte {
		return encodeSplitReq(fixtureProg, 1, []int{0, 2, 1}, 4, "S2")
	}, Recode: func(buf []byte) ([]byte, error) {
		prog, id, path, newID, target, err := decodeSplitReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeSplitReq(prog, id, path, newID, target), nil
	}},
	{Name: "split_resp", Kinds: []string{KindSplit}, Sample: func() []byte {
		return encodeSplitResp(fixtureTriplet, 17, fixtureTriplet[:6], 5, []xmltree.FragmentID{2, 9})
	}, Recode: func(buf []byte) ([]byte, error) {
		own, ownSize, nw, newSize, moved, err := decodeSplitResp(buf)
		if err != nil {
			return nil, err
		}
		return encodeSplitResp(own, ownSize, nw, newSize, moved), nil
	}},
	{Name: "setparent_req", Kinds: []string{KindSetParent}, Sample: func() []byte {
		return encodeSetParentReq(2, 4)
	}, Recode: func(buf []byte) ([]byte, error) {
		id, parent, err := decodeSetParentReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeSetParentReq(id, parent), nil
	}},
	{Name: "adopt_req", Kinds: []string{KindAdopt}, Sample: func() []byte {
		subtree := xmltree.Encode(xmltree.NewElement("market", "",
			xmltree.NewElement("name", "NASDAQ"), xmltree.NewVirtual(2)))
		return encodeAdoptReq(fixtureProg, 4, 1, subtree)
	}, Recode: func(buf []byte) ([]byte, error) {
		prog, id, parent, subtree, err := decodeAdoptReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeAdoptReq(prog, id, parent, subtree), nil
	}},
	{Name: "fragid_req", Kinds: []string{KindYield}, Sample: func() []byte { // yield
		return encodeFragIDReq(300)
	}, Recode: func(buf []byte) ([]byte, error) {
		id, err := decodeFragIDReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeFragIDReq(id), nil
	}},
	{Name: "merge_req", Kinds: []string{KindMerge}, Sample: func() []byte {
		return encodeMergeReq(fixtureProg, 1, 2, "S2")
	}, Recode: func(buf []byte) ([]byte, error) {
		prog, id, child, site, err := decodeMergeReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeMergeReq(prog, id, child, site), nil
	}},
}

// TestPayloadGoldens pins every payload format of the view-maintenance
// protocol to the bytes recorded before the codecs moved onto
// internal/wire.
func TestPayloadGoldens(t *testing.T) {
	golden.Pin(t, payloadCodecs)
	golden.Covers(t, kinds, payloadCodecs, nil)
}

// FuzzPayloadDecoders drives every payload decoder of the view-maintenance
// protocol with arbitrary bytes (see golden.Fuzz for the properties).
func FuzzPayloadDecoders(f *testing.F) {
	golden.Fuzz(f, payloadCodecs, ErrBadUpdate)
}
