package obs

import (
	"testing"

	"repro/internal/golden"
)

var payloadCodecs = []golden.Codec{
	{Name: "spans", Sample: func() []byte {
		return EncodeSpans(nil, []Span{
			{TraceID: 0xfeedfacecafebeef, ID: 1, Site: "S0", Name: "round", Start: 1790000000123456789, Dur: 420000},
			{TraceID: 0xfeedfacecafebeef, ID: 2, Parent: 1, Site: "S1", Name: "handle parbox.evalQual", Start: 1790000000123460000, Dur: 17000,
				Attrs: []Attr{{Key: "steps", Val: 99}, {Key: "lane", Val: -3}}},
		})
	}, Recode: func(buf []byte) ([]byte, error) {
		spans, _, err := DecodeSpans(buf)
		if err != nil {
			return nil, err
		}
		return EncodeSpans(nil, spans), nil
	}},
	{Name: "stats", Sample: func() []byte {
		s := SiteStatsSnapshot{
			Site: "alpha", Visits: 3, MessagesIn: 4, MessagesOut: 5, BytesIn: 1024, BytesOut: 1 << 40,
			Steps: 6, CacheHits: 7, CacheMisses: 8, Sheds: 9, DeadlineExpired: 10, Errors: 11,
			SpineRecomputes: 12, FullRecomputes: 13, NoopUpdates: 14, DeltasPushed: 15,
		}
		for _, v := range []int64{1, 5000, 9000, 1 << 50} {
			s.Latency.Observe(v)
		}
		return s.Encode(nil)
	}, Recode: func(buf []byte) ([]byte, error) {
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
	golden.Pin(t, payloadCodecs)
}

// FuzzPayloadDecoders drives the span and stats decoders with arbitrary
// bytes (see golden.Fuzz for the properties).
func FuzzPayloadDecoders(f *testing.F) {
	golden.Fuzz(f, payloadCodecs, errSpanDecode)
}
