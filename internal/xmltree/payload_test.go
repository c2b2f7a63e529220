package xmltree

import (
	"testing"

	"repro/internal/golden"
)

var payloadCodecs = []golden.Codec{
	{Name: "tree", Sample: func() []byte {
		return Encode(NewElement("market", "",
			NewElement("name", "NASDAQ"),
			NewElement("stock", "",
				NewElement("code", "é"),
				NewVirtual(300)),
			NewVirtual(2),
			NewElement("", "")))
	}, Recode: func(buf []byte) ([]byte, error) {
		n, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		return Encode(n), nil
	}},
}

// TestPayloadGoldens pins the tree encoding to the bytes recorded before
// the codec moved onto internal/wire.
func TestPayloadGoldens(t *testing.T) {
	golden.Pin(t, payloadCodecs)
}

// FuzzPayloadDecoders drives the tree decoder with arbitrary bytes (see
// golden.Fuzz for the properties).
func FuzzPayloadDecoders(f *testing.F) {
	golden.Fuzz(f, payloadCodecs, ErrBadTree)
}
