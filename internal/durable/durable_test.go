package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var (
	errTest    = errors.New("test: bad file")
	testFormat = Format{Magic: "TEST", Version: 2, Class: errTest}
)

// TestLoadErrors: a missing file is os.ErrNotExist; a wrong magic,
// version, length or CRC is the format's class.
func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := testFormat.Load(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
	path := filepath.Join(dir, "state")
	if err := testFormat.Save(path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(b []byte) []byte{
		"magic":     func(b []byte) []byte { b[0] = 'X'; return b },
		"version":   func(b []byte) []byte { b[5]++; return b },
		"crc":       func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"short":     func(b []byte) []byte { return b[:10] },
	} {
		bad := mutate(append([]byte(nil), good...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := testFormat.Load(path); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the format class", name, err)
		}
	}
}

// TestDecRejectsMalformed: an oversized count, a truncated field, a
// non-canonical bool and trailing bytes all stick as the format class.
func TestDecRejectsMalformed(t *testing.T) {
	var e Enc
	e.U32(5) // claims five elements, carries four bytes
	e.U32(0)
	d := testFormat.Dec(e.Bytes())
	if n := d.Count(); n != 0 || !errors.Is(d.Err(), errTest) {
		t.Errorf("oversized count: n=%d err=%v", n, d.Err())
	}
	if d.U64() != 0 || d.Str() != "" {
		t.Error("reads after an error must return zero values")
	}

	d = testFormat.Dec([]byte{0, 0, 0})
	if d.U32(); !errors.Is(d.Err(), errTest) {
		t.Errorf("truncated u32: err = %v", d.Err())
	}

	d = testFormat.Dec([]byte{2})
	if d.Bool(); !errors.Is(d.Err(), errTest) {
		t.Errorf("bool byte 2: err = %v", d.Err())
	}

	d = testFormat.Dec([]byte{1, 9})
	if !d.Bool() || !errors.Is(d.Finish(), errTest) {
		t.Errorf("trailing byte: err = %v", d.Err())
	}
}
