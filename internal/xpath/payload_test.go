package xpath

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
	{"program", func() []byte { // every subquery kind
		return MustCompileString(`//stock[code = "GOOG" && !(sell = "373")]/buy || /portofolio/*[text() = "é"]//name`).Encode()
	}, func(buf []byte) ([]byte, error) {
		p, err := DecodeProgram(buf)
		if err != nil {
			return nil, err
		}
		return p.Encode(), nil
	}},
}

// TestPayloadGoldens pins the program encoding to the bytes recorded
// before the codec moved onto internal/wire.
func TestPayloadGoldens(t *testing.T) {
	for _, c := range payloadCodecs {
		t.Run(c.name, func(t *testing.T) { golden.Pin(t, c.name, c.sample(), c.recode) })
	}
}
