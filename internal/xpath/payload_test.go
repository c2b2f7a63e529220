package xpath

import (
	"testing"

	"repro/internal/golden"
)

var payloadCodecs = []golden.Codec{
	{Name: "program", Sample: func() []byte { // every subquery kind
		return MustCompileString(`//stock[code = "GOOG" && !(sell = "373")]/buy || /portofolio/*[text() = "é"]//name`).Encode()
	}, Recode: func(buf []byte) ([]byte, error) {
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
	golden.Pin(t, payloadCodecs)
}

// FuzzPayloadDecoders drives the program decoder with arbitrary bytes (see
// golden.Fuzz for the properties).
func FuzzPayloadDecoders(f *testing.F) {
	golden.Fuzz(f, payloadCodecs, ErrBadProgram)
}
