package obs

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
	{"spans", func() []byte {
		return EncodeSpans(nil, []Span{
			{TraceID: 0xfeedfacecafebeef, ID: 1, Site: "S0", Name: "round", Start: 1790000000123456789, Dur: 420000},
			{TraceID: 0xfeedfacecafebeef, ID: 2, Parent: 1, Site: "S1", Name: "handle parbox.evalQual", Start: 1790000000123460000, Dur: 17000,
				Attrs: []Attr{{Key: "steps", Val: 99}, {Key: "lane", Val: -3}}},
		})
	}, func(buf []byte) ([]byte, error) {
		spans, _, err := DecodeSpans(buf)
		if err != nil {
			return nil, err
		}
		return EncodeSpans(nil, spans), nil
	}},
	{"stats", func() []byte {
		s := SiteStatsSnapshot{
			Site: "alpha", Visits: 3, MessagesIn: 4, MessagesOut: 5, BytesIn: 1024, BytesOut: 1 << 40,
			Steps: 6, CacheHits: 7, CacheMisses: 8, Sheds: 9, DeadlineExpired: 10, Errors: 11,
			SpineRecomputes: 12, FullRecomputes: 13, NoopUpdates: 14, DeltasPushed: 15,
		}
		for _, v := range []int64{1, 5000, 9000, 1 << 50} {
			s.Latency.Observe(v)
		}
		return s.Encode(nil)
	}, func(buf []byte) ([]byte, error) {
		s, err := DecodeSiteStats(buf)
		if err != nil {
			return nil, err
		}
		return s.Encode(nil), nil
	}},
}

// TestPayloadGoldens pins the span and stats encodings to the bytes
// recorded before the codecs moved onto internal/wire.
func TestPayloadGoldens(t *testing.T) {
	for _, c := range payloadCodecs {
		t.Run(c.name, func(t *testing.T) { golden.Pin(t, c.name, c.sample(), c.recode) })
	}
}
