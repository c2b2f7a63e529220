// Package store is a per-site durable fragment store: a segmented
// append-only WAL of fragment mutations plus periodic snapshots, giving a
// site crash recovery with exact fragment-version restoration (so the
// serving layer's versioned triplet cache warm-starts) and a disk-backed
// fragment table that lets a site host more fragments than fit in RAM.
//
// On-disk layout (one directory per site):
//
//	wal-<seq>.wal    append-only segments of mutation records
//	snap-<seq>.snap  the latest snapshot; replay starts at segment <seq>
//	*.tmp            in-progress snapshot writes (ignored and removed)
//
// Both file kinds open with an 8-byte magic and then hold a stream of
// length-prefixed, CRC-checked records:
//
//	uint32 LE body length | uint32 LE CRC-32C of body | body
//
// The body's first byte is the record kind; fragment content rides in the
// existing xmltree wire encoding and cached triplets in the boolexpr-based
// triplet encoding, so the WAL introduces no third codec for trees or
// formulas. Numbers are uvarints, matching those codecs.
//
// Recovery replays the newest valid snapshot and then every segment at or
// after its sequence number. A torn record at the tail of the final
// segment — the expected shape of a crash — is truncated away; a bad
// record anywhere else is reported as corruption.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/wire"
	"repro/internal/xmltree"
)

// Record kinds.
const (
	// recPut logs a fragment's full content (add or in-place mutation):
	// id, parent, version, then the xmltree encoding of the tree.
	recPut = byte(1)
	// recDelete logs a fragment's removal: id, version. The version
	// counter survives the fragment, keeping version-keyed caches safe
	// against id reuse.
	recDelete = byte(2)
	// recVersion sets a version counter without content — snapshots use it
	// to persist the counters of removed fragments.
	recVersion = byte(3)
	// recTriplet logs a memoized triplet-cache entry: id, fragment
	// version, program fingerprint, then the triplet's wire encoding.
	recTriplet = byte(4)
	// recSnapEnd is the snapshot footer: the count of preceding records.
	// A snapshot without a matching footer is not trusted.
	recSnapEnd = byte(5)
)

const (
	walMagic  = "PBXWAL1\n"
	snapMagic = "PBXSNP1\n"
	magicLen  = 8

	// recordHeaderLen is the length+CRC prefix of every record.
	recordHeaderLen = 8

	// maxRecordBytes bounds the body length a reader accepts, refusing
	// absurd allocations from corrupt length prefixes.
	maxRecordBytes = 1 << 28
)

// ErrCorrupt is wrapped by recovery failures that indicate real on-disk
// corruption (as opposed to the tolerated torn tail of the last segment).
var ErrCorrupt = errors.New("store: corrupt log")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// putBody builds a recPut body around an already-encoded tree and returns
// it with the offset of the tree bytes within the body (the byte range the
// index remembers, so loads and snapshot copies never re-encode). Fragment
// ids (including frag.NoParent, -1) ride the way the xmltree codec encodes
// virtual-node ids.
func putBody(id, parent xmltree.FragmentID, version uint64, tree []byte) (body []byte, payloadOff int) {
	body = make([]byte, 0, 1+3*binary.MaxVarintLen64+len(tree))
	body = append(body, recPut)
	body = xmltree.AppendFragmentID(body, id)
	body = xmltree.AppendFragmentID(body, parent)
	body = binary.AppendUvarint(body, version)
	payloadOff = len(body)
	body = append(body, tree...)
	return body, payloadOff
}

func deleteBody(id xmltree.FragmentID, version uint64) []byte {
	body := make([]byte, 0, 1+2*binary.MaxVarintLen64)
	body = append(body, recDelete)
	body = xmltree.AppendFragmentID(body, id)
	body = binary.AppendUvarint(body, version)
	return body
}

func versionBody(id xmltree.FragmentID, version uint64) []byte {
	body := make([]byte, 0, 1+2*binary.MaxVarintLen64)
	body = append(body, recVersion)
	body = xmltree.AppendFragmentID(body, id)
	body = binary.AppendUvarint(body, version)
	return body
}

func tripletBody(id xmltree.FragmentID, version, fp uint64, enc []byte) (body []byte, payloadOff int) {
	body = make([]byte, 0, 1+3*binary.MaxVarintLen64+len(enc))
	body = append(body, recTriplet)
	body = xmltree.AppendFragmentID(body, id)
	body = binary.AppendUvarint(body, version)
	body = binary.AppendUvarint(body, fp)
	payloadOff = len(body)
	body = append(body, enc...)
	return body, payloadOff
}

func snapEndBody(count uint64) []byte {
	body := make([]byte, 0, 1+binary.MaxVarintLen64)
	body = append(body, recSnapEnd)
	body = binary.AppendUvarint(body, count)
	return body
}

// record is a decoded record body. Payload bytes (tree or triplet
// encoding) are identified by their offset within the body rather than
// copied: the replay loop turns the offset into a file location for the
// in-memory index.
type record struct {
	kind       byte
	id         xmltree.FragmentID
	parent     xmltree.FragmentID
	version    uint64
	fp         uint64
	payloadOff int
	count      uint64 // recSnapEnd
}

// decodeRecord parses one record body. Payload bytes are not validated
// here — a tree or triplet that passes the CRC but fails its own codec is
// surfaced when first decoded (LoadFragment / triplet restore).
func decodeRecord(body []byte) (record, error) {
	r := wire.NewReader(body, ErrCorrupt)
	rec := record{kind: r.Byte()}
	switch rec.kind {
	case recPut:
		rec.id = xmltree.ReadFragmentID(&r)
		rec.parent = xmltree.ReadFragmentID(&r)
		rec.version = r.Uvarint()
		rec.payloadOff = r.Offset()
		r.Rest()
	case recDelete, recVersion:
		rec.id = xmltree.ReadFragmentID(&r)
		rec.version = r.Uvarint()
	case recTriplet:
		rec.id = xmltree.ReadFragmentID(&r)
		rec.version = r.Uvarint()
		rec.fp = r.Uvarint()
		rec.payloadOff = r.Offset()
		r.Rest()
	case recSnapEnd:
		rec.count = r.Uvarint()
	default:
		r.Fail("unknown record kind %d", rec.kind)
	}
	if err := r.Done(); err != nil {
		return record{}, fmt.Errorf("%w (record kind %d)", err, rec.kind)
	}
	return rec, nil
}

// frameRecord appends the length+CRC header and body to dst.
func frameRecord(dst, body []byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// tailIsTorn reports whether the segment's remainder past off holds no
// further intact record — the shape of a genuine crash, where the torn
// bytes are the last thing ever written. Any CRC-valid, decodable record
// after the bad region proves the damage is mid-log corruption instead
// (later appends succeeded, so the log cannot have been torn here), which
// callers must report rather than silently truncate away.
func tailIsTorn(f *os.File, off, size int64) bool {
	n := size - off
	if n <= recordHeaderLen {
		return true
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return true
	}
	for p := int64(1); p+recordHeaderLen <= n; p++ {
		bl := int64(binary.LittleEndian.Uint32(buf[p : p+4]))
		if bl > maxRecordBytes || bl > n-p-recordHeaderLen {
			continue
		}
		body := buf[p+recordHeaderLen : p+recordHeaderLen+bl]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(buf[p+4:p+8]) {
			continue
		}
		if _, err := decodeRecord(body); err == nil {
			return false
		}
	}
	return true
}

// readRecord reads the record starting at off in f. It returns the body
// and the offset just past the record. io.EOF exactly at off means a clean
// end of the stream; every other failure (short header, short body, bad
// length, CRC mismatch) is reported as ErrCorrupt with the offset, which
// the caller maps to either tail truncation or a hard corruption error.
func readRecord(f *os.File, off, size int64) ([]byte, int64, error) {
	if off == size {
		return nil, off, io.EOF
	}
	if size-off < recordHeaderLen {
		return nil, off, fmt.Errorf("%w: torn record header at offset %d", ErrCorrupt, off)
	}
	var hdr [recordHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, off, fmt.Errorf("store: reading header at %d: %w", off, err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxRecordBytes {
		return nil, off, fmt.Errorf("%w: record length %d at offset %d exceeds limit", ErrCorrupt, n, off)
	}
	if size-off-recordHeaderLen < n {
		return nil, off, fmt.Errorf("%w: torn record body at offset %d", ErrCorrupt, off)
	}
	body := make([]byte, n)
	if _, err := f.ReadAt(body, off+recordHeaderLen); err != nil {
		return nil, off, fmt.Errorf("store: reading body at %d: %w", off, err)
	}
	if crc32.Checksum(body, crcTable) != crc {
		return nil, off, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
	}
	return body, off + recordHeaderLen + n, nil
}
