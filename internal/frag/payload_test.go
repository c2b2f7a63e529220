package frag

import (
	"testing"

	"repro/internal/golden"
)

var payloadCodecs = []golden.Codec{
	{Name: "sourcetree", Sample: func() []byte {
		st, err := SourceTreeFromEntries([]Entry{
			{Frag: 0, Parent: NoParent, Site: "S0", Size: 10007},
			{Frag: 1, Parent: 0, Site: "S1", Size: 130},
			{Frag: 2, Parent: 1, Site: "site-with-a-long-name:7002", Size: 1},
			{Frag: 300, Parent: 0, Site: "S", Size: 0},
		})
		if err != nil {
			panic(err)
		}
		return st.Encode()
	}, Recode: func(buf []byte) ([]byte, error) {
		st, err := DecodeSourceTree(buf)
		if err != nil {
			return nil, err
		}
		return st.Encode(), nil
	}},
}

// TestPayloadGoldens pins the source-tree encoding to the bytes recorded
// before the codec moved onto internal/wire.
func TestPayloadGoldens(t *testing.T) {
	golden.Pin(t, payloadCodecs)
}

// FuzzPayloadDecoders drives the source-tree decoder with arbitrary bytes
// (see golden.Fuzz for the properties).
func FuzzPayloadDecoders(f *testing.F) {
	golden.Fuzz(f, payloadCodecs, ErrBadSourceTree)
}
