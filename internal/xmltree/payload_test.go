package xmltree

import (
	"testing"

	"repro/internal/golden"
)

// payloadCodec is one payload format of this package: sample encodes a
// fixed value, recode decodes a buffer and re-encodes what it read.
type payloadCodec struct {
	name   string
	sample func() []byte
	recode func([]byte) ([]byte, error)
}

var payloadCodecs = []payloadCodec{
	{"tree", func() []byte {
		return Encode(NewElement("market", "",
			NewElement("name", "NASDAQ"),
			NewElement("stock", "",
				NewElement("code", "é"),
				NewVirtual(300)),
			NewVirtual(2),
			NewElement("", "")))
	}, func(buf []byte) ([]byte, error) {
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
	for _, c := range payloadCodecs {
		t.Run(c.name, func(t *testing.T) { golden.Pin(t, c.name, c.sample(), c.recode) })
	}
}
