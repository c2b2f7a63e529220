// Package golden pins encoder output to hex fixtures under the calling
// package's testdata/ directory, so "the bytes did not change" is checked
// byte for byte. Test support only: nothing outside _test files imports it.
package golden

import (
	"bytes"
	"encoding/hex"
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

// Pin is Check plus the decode side: recode — decode a buffer, then
// re-encode what was read — must reproduce the fixture exactly.
func Pin(t *testing.T, name string, enc []byte, recode func([]byte) ([]byte, error)) {
	t.Helper()
	Check(t, name, enc)
	fixture := Read(t, name)
	got, err := recode(fixture)
	if err != nil {
		t.Fatalf("%s: decoding the fixture: %v", name, err)
	}
	if !bytes.Equal(got, fixture) {
		t.Errorf("%s: decode → encode is not the identity on the fixture\n got %x\nwant %x", name, got, fixture)
	}
}
