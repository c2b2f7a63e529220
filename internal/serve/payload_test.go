package serve

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/golden"
	"repro/internal/xmltree"
)

func fixtureFragment() *frag.Fragment {
	return &frag.Fragment{ID: 4, Parent: 1, Root: xmltree.NewElement("market", "",
		xmltree.NewElement("name", "NASDAQ"), xmltree.NewVirtual(2))}
}

// cloneResp answers a clone request through the real handler, so the
// fixture is what a site puts on the wire.
func cloneResp(fr *frag.Fragment) []byte {
	site := cluster.NewSite("S1")
	site.AddFragment(fr)
	resp, err := handleCloneFragment(context.Background(), site, cluster.Request{Payload: encodeFragIDReq(fr.ID)})
	if err != nil {
		panic(err)
	}
	return resp.Payload
}

var payloadCodecs = []golden.Codec{
	{Name: "fragid_req", Kinds: []string{KindCloneFragment}, Sample: func() []byte {
		return encodeFragIDReq(300)
	}, Recode: func(buf []byte) ([]byte, error) {
		id, err := decodeFragIDReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeFragIDReq(id), nil
	}},
	{Name: "clone_resp", Kinds: []string{KindCloneFragment}, Sample: func() []byte {
		return cloneResp(fixtureFragment())
	}, Recode: func(buf []byte) ([]byte, error) {
		parent, root, err := decodeCloneResp(buf)
		if err != nil {
			return nil, err
		}
		return cloneResp(&frag.Fragment{ID: 4, Parent: parent, Root: root}), nil
	}},
	{Name: "clone_resp_root", Kinds: []string{KindCloneFragment}, Sample: func() []byte { // the root fragment's parent is -1: a signed varint
		return cloneResp(&frag.Fragment{ID: 0, Parent: frag.NoParent, Root: xmltree.NewElement("site", "")})
	}, Recode: func(buf []byte) ([]byte, error) {
		parent, root, err := decodeCloneResp(buf)
		if err != nil {
			return nil, err
		}
		return cloneResp(&frag.Fragment{ID: 0, Parent: parent, Root: root}), nil
	}},
	{Name: "install_req", Kinds: []string{KindInstallFragment}, Sample: func() []byte {
		fr := fixtureFragment()
		return encodeInstallReq(fr.ID, fr.Parent, fr.Root)
	}, Recode: func(buf []byte) ([]byte, error) {
		id, parent, root, err := decodeInstallReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeInstallReq(id, parent, root), nil
	}},
}

// unpinnedKinds are the declared kinds without a codec, and why.
var unpinnedKinds = map[string]string{
	KindProbe: "an empty request answered with the site's name",
}

// TestPayloadGoldens pins the serving tier's payload formats to the bytes
// recorded before the codecs moved onto internal/wire, and every kind of
// the package's table to a codec.
func TestPayloadGoldens(t *testing.T) {
	golden.Pin(t, payloadCodecs)
	golden.Covers(t, kinds, payloadCodecs, unpinnedKinds)
}

// FuzzPayloadDecoders drives the serving tier's payload decoders with
// arbitrary bytes (see golden.Fuzz for the properties); the shipped tree
// fails with the tree codec's sentinel.
func FuzzPayloadDecoders(f *testing.F) {
	golden.Fuzz(f, payloadCodecs, ErrBadServeMessage, xmltree.ErrBadTree)
}
