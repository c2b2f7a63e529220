// Package golden pins encoder output to hex fixtures under the calling
// package's testdata/ directory, so "the bytes did not change" is checked
// byte for byte. Test support only: nothing outside _test files imports it.
package golden

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update-golden", false, "rewrite testdata/*.hex from the current encoders")

// Read returns the bytes recorded in testdata/<name>.hex.
func Read(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".hex"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("testdata/%s.hex: %v", name, err)
	}
	return want
}

// Check fails the test unless got equals testdata/<name>.hex; under
// -update-golden it rewrites the fixture from got instead.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", name+".hex"), []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := Read(t, name); !bytes.Equal(got, want) {
		t.Errorf("%s changed: %d bytes, golden %d bytes\n got %x\nwant %x", name, len(got), len(want), got, want)
	}
}

// Codec is one payload format under test: Sample encodes a fixed value,
// Recode decodes a buffer and re-encodes what it read. Each package keeps
// its own table of them beside its codecs.
type Codec struct {
	Name   string // fixture name
	Sample func() []byte
	Recode func([]byte) ([]byte, error)
}

// Pin checks every codec's Sample against its fixture and that Recode
// reproduces the fixture exactly: encoder and decoder both still speak
// the recorded bytes.
func Pin(t *testing.T, codecs []Codec) {
	for _, c := range codecs {
		t.Run(c.Name, func(t *testing.T) {
			Check(t, c.Name, c.Sample())
			fixture := Read(t, c.Name)
			got, err := c.Recode(fixture)
			if err != nil {
				t.Fatalf("decoding the fixture: %v", err)
			}
			if !bytes.Equal(got, fixture) {
				t.Errorf("decode → encode is not the identity on the fixture\n got %x\nwant %x", got, fixture)
			}
		})
	}
}

// Fuzz drives the decoders behind codecs with arbitrary bytes, seeded
// from the fixtures; selector picks the codec. A decoder must never
// panic, must fail only with an error wrapping one of sentinels, and on
// input it accepts decode → encode → decode must be a fixed point.
func Fuzz(f *testing.F, codecs []Codec, sentinels ...error) {
	for i, c := range codecs {
		f.Add(byte(i), Read(f, c.Name))
	}
	f.Fuzz(func(t *testing.T, selector byte, data []byte) {
		c := codecs[int(selector)%len(codecs)]
		enc, err := c.Recode(data)
		if err != nil {
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("%s: error wraps no sentinel of its package: %v", c.Name, err)
		}
		again, err := c.Recode(enc)
		if err != nil {
			t.Fatalf("%s: the decoder refuses its own re-encoding %x: %v", c.Name, enc, err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("%s: decode → encode → decode is not a fixed point\n first %x\nsecond %x", c.Name, enc, again)
		}
	})
}
