package explore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestExploreStateFormatGolden pins the EXPL v1 state file byte for byte:
// the toy exploration's final state is exactly testdata/state.golden. Any
// change to the frame, the codec or the payload schema fails here; a
// deliberate format change bumps stateVersion and re-records with -update.
func TestExploreStateFormatGolden(t *testing.T) {
	spec := toySpec()
	spec.Checkpoint = filepath.Join(t.TempDir(), "explore.ckpt")
	mustExplore(t, spec)
	got, err := os.ReadFile(spec.Checkpoint)
	if err != nil {
		t.Fatalf("read state: %v", err)
	}
	golden := filepath.Join("testdata", "state.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (record with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("state bytes differ from %s (%d bytes, want %d)", golden, len(got), len(want))
	}
}

// TestExploreStateRejectsCraftedCount: a state file whose CRC and
// fingerprint are valid but whose population count claims 0xFFFFFFF0
// genomes must surface as ErrState, not as a giant allocation. Counts are
// bounded by the payload bytes left (durable.Dec.Count).
func TestExploreStateRejectsCraftedCount(t *testing.T) {
	spec := toySpec()
	spec.Checkpoint = filepath.Join(t.TempDir(), "explore.ckpt")
	payload := binary.BigEndian.AppendUint64(nil, fingerprint(&spec))
	payload = binary.BigEndian.AppendUint32(payload, 0)          // gen
	payload = binary.BigEndian.AppendUint64(payload, 0)          // failTotal
	payload = binary.BigEndian.AppendUint32(payload, 0xFFFFFFF0) // npop
	file := append([]byte("EXPL"), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(file[4:], 1)
	binary.BigEndian.PutUint32(file[6:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(file[10:], uint32(len(payload)))
	if err := os.WriteFile(spec.Checkpoint, append(file, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(context.Background(), spec); !errors.Is(err, ErrState) {
		t.Fatalf("Resume of crafted state: err = %v, want ErrState", err)
	}
}
