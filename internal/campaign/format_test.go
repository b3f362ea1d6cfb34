package campaign

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenMatrix joins the synthetic cover, failure and profile cells, so
// one checkpoint carries every payload block: stats, coverage, activity,
// retained failures and the quarantine board.
func goldenMatrix() []Cell {
	var m []Cell
	for _, part := range []struct {
		name  string
		cells []Cell
	}{{"cover", coverMatrix()}, {"fail", syntheticMatrix()}, {"profile", profileMatrix()}} {
		for _, c := range part.cells {
			c.Experiment = part.name
			m = append(m, c)
		}
	}
	return m
}

// TestCheckpointFormatGolden pins the CKPT v3 file byte for byte: a
// completed 32-run, 2-shard synthetic campaign with coverage, profile and
// supervision on writes exactly testdata/checkpoint.golden. Any change to the frame, the codec
// or the payload schema fails here; a deliberate format change bumps
// ckptFormat.Version and re-records with -update.
func TestCheckpointFormatGolden(t *testing.T) {
	spec := Spec{
		Name:       "ckpt-golden",
		Seed:       5,
		Runs:       32,
		Shards:     2,
		Matrix:     goldenMatrix(),
		Coverage:   true,
		Profile:    true,
		Policy:     Policy{Retries: 1, RetryBase: time.Microsecond, QuarantineAfter: 3},
		Checkpoint: filepath.Join(t.TempDir(), "campaign.ckpt"),
	}
	if _, err := Execute(context.Background(), spec); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	got, err := os.ReadFile(spec.Checkpoint)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	golden := filepath.Join("testdata", "checkpoint.golden")
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
		t.Errorf("checkpoint bytes differ from %s (%d bytes, want %d)", golden, len(got), len(want))
	}
}
