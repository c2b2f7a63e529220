package serve

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frag"
	"repro/internal/golden"
	"repro/internal/xmltree"
)

// payloadCodec is one payload format of this package: sample encodes a
// fixed value, recode decodes a buffer and re-encodes what it read.
type payloadCodec struct {
	name   string
	sample func() []byte
	recode func([]byte) ([]byte, error)
}

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

var payloadCodecs = []payloadCodec{
	{"fragid_req", func() []byte {
		return encodeFragIDReq(300)
	}, func(buf []byte) ([]byte, error) {
		id, err := decodeFragIDReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeFragIDReq(id), nil
	}},
	{"clone_resp", func() []byte {
		return cloneResp(fixtureFragment())
	}, func(buf []byte) ([]byte, error) {
		id, parent, root, err := decodeCloneResp(4, buf)
		if err != nil {
			return nil, err
		}
		return cloneResp(&frag.Fragment{ID: id, Parent: parent, Root: root}), nil
	}},
	{"clone_resp_root", func() []byte { // the root fragment's parent is -1: a signed varint
		return cloneResp(&frag.Fragment{ID: 0, Parent: frag.NoParent, Root: xmltree.NewElement("site", "")})
	}, func(buf []byte) ([]byte, error) {
		id, parent, root, err := decodeCloneResp(0, buf)
		if err != nil {
			return nil, err
		}
		return cloneResp(&frag.Fragment{ID: id, Parent: parent, Root: root}), nil
	}},
	{"install_req", func() []byte {
		fr := fixtureFragment()
		return encodeInstallReq(fr.ID, fr.Parent, fr.Root)
	}, func(buf []byte) ([]byte, error) {
		id, parent, root, err := decodeInstallReq(buf)
		if err != nil {
			return nil, err
		}
		return encodeInstallReq(id, parent, root), nil
	}},
}

// TestPayloadGoldens pins the serving tier's payload formats to the bytes
// recorded before the codecs moved onto internal/wire.
func TestPayloadGoldens(t *testing.T) {
	for _, c := range payloadCodecs {
		t.Run(c.name, func(t *testing.T) { golden.Pin(t, c.name, c.sample(), c.recode) })
	}
}
