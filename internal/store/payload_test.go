package store

import (
	"fmt"
	"testing"

	"repro/internal/golden"
	"repro/internal/xmltree"
)

// rebodied rebuilds a record body from its decoded form plus the payload
// tail the decoder leaves in place.
func rebodied(r record, body []byte) []byte {
	switch r.kind {
	case recPut:
		b, _ := putBody(r.id, r.parent, r.version, body[r.payloadOff:])
		return b
	case recDelete:
		return deleteBody(r.id, r.version)
	case recVersion:
		return versionBody(r.id, r.version)
	case recTriplet:
		b, _ := tripletBody(r.id, r.version, r.fp, body[r.payloadOff:])
		return b
	case recSnapEnd:
		return snapEndBody(r.count)
	}
	panic(fmt.Sprintf("record kind %d", r.kind))
}

// TestRecordGoldens pins one framed WAL record of each kind to the bytes
// recorded before the record decoder moved onto internal/wire.
func TestRecordGoldens(t *testing.T) {
	tree := xmltree.Encode(xmltree.NewElement("market", "", xmltree.NewElement("name", "NASDAQ"), xmltree.NewVirtual(2)))
	put, _ := putBody(4, 1, 1<<33, tree)
	rootPut, _ := putBody(0, -1, 1, tree) // frag.NoParent rides as uint32(-1)
	triplet, _ := tripletBody(300, 17, 0xfeedfacecafebeef, []byte{1, 0, 1, 0, 1, 0})
	recode := func(framed []byte) ([]byte, error) {
		body := framed[recordHeaderLen:]
		r, err := decodeRecord(body)
		if err != nil {
			return nil, err
		}
		return frameRecord(nil, rebodied(r, body)), nil
	}
	var codecs []golden.Codec
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"rec_put", put},
		{"rec_put_root", rootPut},
		{"rec_delete", deleteBody(4, 9)},
		{"rec_version", versionBody(300, 1<<40)},
		{"rec_triplet", triplet},
		{"rec_snapend", snapEndBody(4711)},
	} {
		codecs = append(codecs, golden.Codec{Name: c.name, Sample: func() []byte { return frameRecord(nil, c.body) }, Recode: recode})
	}
	golden.Pin(t, codecs)
}
