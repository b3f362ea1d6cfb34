package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"castanet/internal/durable"
)

// interruptAfter cancels ctx once n results have been collected,
// simulating an operator killing the campaign mid-flight.
func interruptAfter(n int64, cancel context.CancelFunc) func(Result) {
	var seen atomic.Int64
	return func(Result) {
		if seen.Add(1) == n {
			cancel()
		}
	}
}

func assertSameSummary(t *testing.T, got, want *Summary, label string) {
	t.Helper()
	if got.Digest() != want.Digest() {
		t.Errorf("%s: digest differs:\n-- got --\n%s-- want --\n%s", label, got.Digest(), want.Digest())
	}
	if got.Completed != want.Completed || got.Failed != want.Failed ||
		got.Retried != want.Retried || got.GaveUp != want.GaveUp {
		t.Errorf("%s: completed/failed/retried/gaveup = %d/%d/%d/%d, want %d/%d/%d/%d", label,
			got.Completed, got.Failed, got.Retried, got.GaveUp,
			want.Completed, want.Failed, want.Retried, want.GaveUp)
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: stat count %d, want %d", label, len(got.Stats), len(want.Stats))
	}
	for i, w := range want.Stats {
		if s := got.Stats[i]; s != w {
			t.Errorf("%s: stat %q: got %+v, want %+v", label, w.Name, s, w)
		}
	}
}

// TestCheckpointResumeDeterministic is the tentpole durability property:
// interrupt a checkpointed campaign mid-flight, resume it from the file,
// and the final digest and aggregate report are byte-identical to an
// uninterrupted run — at more than one shard count.
func TestCheckpointResumeDeterministic(t *testing.T) {
	for _, shards := range []int{2, 5} {
		base := Spec{
			Name:   "ckpt-prop",
			Seed:   42,
			Runs:   200,
			Shards: shards,
			Matrix: syntheticMatrix(),
		}
		ref, err := Execute(context.Background(), base)
		if err != nil {
			t.Fatalf("shards=%d: reference Execute: %v", shards, err)
		}
		if ref.Failed == 0 {
			t.Fatal("synthetic matrix produced no failures; test is vacuous")
		}

		ck := filepath.Join(t.TempDir(), "campaign.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		interrupted := base
		interrupted.Checkpoint = ck
		interrupted.CheckpointEvery = 8
		interrupted.OnResult = interruptAfter(60, cancel)
		partial, err := Execute(ctx, interrupted)
		cancel()
		if err != nil {
			t.Fatalf("shards=%d: interrupted Execute: %v", shards, err)
		}
		if partial.Skipped == 0 {
			t.Fatalf("shards=%d: interruption skipped nothing; property is vacuous", shards)
		}
		if _, err := os.Stat(ck); err != nil {
			t.Fatalf("shards=%d: no checkpoint written: %v", shards, err)
		}

		resumed := base
		resumed.Checkpoint = ck
		res, err := Resume(context.Background(), resumed)
		if err != nil {
			t.Fatalf("shards=%d: Resume: %v", shards, err)
		}
		if res.Skipped != 0 {
			t.Errorf("shards=%d: resumed run skipped %d runs", shards, res.Skipped)
		}
		assertSameSummary(t, res, ref, fmt.Sprintf("shards=%d", shards))
	}
}

// TestResumeOfCompleteCampaign checks the final checkpoint covers the full
// campaign: resuming it reproduces the identical summary while executing
// zero runs.
func TestResumeOfCompleteCampaign(t *testing.T) {
	var execs atomic.Int64
	matrix := syntheticMatrix()
	for i := range matrix {
		inner := matrix[i].Run
		matrix[i].Run = func(ctx context.Context, r *Run) error {
			execs.Add(1)
			return inner(ctx, r)
		}
	}
	spec := Spec{
		Name:       "ckpt-complete",
		Seed:       7,
		Runs:       64,
		Shards:     3,
		Matrix:     matrix,
		Checkpoint: filepath.Join(t.TempDir(), "campaign.ckpt"),
	}
	ref, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	ran := execs.Load()
	if ran < int64(spec.Runs) {
		t.Fatalf("first pass executed %d of %d runs", ran, spec.Runs)
	}

	res, err := Resume(context.Background(), spec)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if got := execs.Load(); got != ran {
		t.Errorf("resume of a complete campaign executed %d extra runs", got-ran)
	}
	assertSameSummary(t, res, ref, "resume-of-complete")
}

// TestResumeMissingFileRunsFresh: a missing checkpoint degrades to a
// fresh full execution rather than an error.
func TestResumeMissingFileRunsFresh(t *testing.T) {
	spec := Spec{
		Name:       "ckpt-missing",
		Seed:       9,
		Runs:       40,
		Shards:     2,
		Matrix:     syntheticMatrix(),
		Checkpoint: filepath.Join(t.TempDir(), "never-written.ckpt"),
	}
	ref, err := Execute(context.Background(), Spec{
		Name: spec.Name, Seed: spec.Seed, Runs: spec.Runs,
		Shards: spec.Shards, Matrix: syntheticMatrix(),
	})
	if err != nil {
		t.Fatalf("reference Execute: %v", err)
	}
	res, err := Resume(context.Background(), spec)
	if err != nil {
		t.Fatalf("Resume with missing file: %v", err)
	}
	assertSameSummary(t, res, ref, "missing-file")
}

// TestResumeFingerprintMismatch: a checkpoint from a different campaign
// (here: different seed) must be rejected, not silently blended.
func TestResumeFingerprintMismatch(t *testing.T) {
	spec := Spec{
		Name:       "ckpt-fp",
		Seed:       11,
		Runs:       32,
		Shards:     2,
		Matrix:     syntheticMatrix(),
		Checkpoint: filepath.Join(t.TempDir(), "campaign.ckpt"),
	}
	if _, err := Execute(context.Background(), spec); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	other := spec
	other.Seed++
	if _, err := Resume(context.Background(), other); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("Resume with mismatched seed: err = %v, want ErrCheckpoint", err)
	}
}

// TestResumeRejectsCorruptFile: bit flips and truncation both surface as
// ErrCheckpoint (CRC or bounds check), never a panic or a silent restart.
func TestResumeRejectsCorruptFile(t *testing.T) {
	spec := Spec{
		Name:       "ckpt-corrupt",
		Seed:       13,
		Runs:       32,
		Shards:     2,
		Matrix:     syntheticMatrix(),
		Checkpoint: filepath.Join(t.TempDir(), "campaign.ckpt"),
	}
	if _, err := Execute(context.Background(), spec); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	raw, err := os.ReadFile(spec.Checkpoint)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0xff
	if err := os.WriteFile(spec.Checkpoint, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(context.Background(), spec); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("Resume with flipped byte: err = %v, want ErrCheckpoint", err)
	}

	if err := os.WriteFile(spec.Checkpoint, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(context.Background(), spec); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("Resume with truncated file: err = %v, want ErrCheckpoint", err)
	}
}

// sumOf returns the exact sum of vs.
func sumOf(vs ...float64) exactSum {
	var s exactSum
	for _, v := range vs {
		s.add(v)
	}
	return s
}

// TestCheckpointRoundTrip exercises the codec directly, including exact
// sums of every shape: zero, negative, non-integral, subnormal, beyond
// the float64 range, and with a non-finite part.
func TestCheckpointRoundTrip(t *testing.T) {
	fail := ckFailure{index: 5, seed: 99, cell: "synth/noise",
		label: "coupling/timeout/run", detail: "deadline"}
	stat := func(name string, vs ...float64) namedStat {
		s := namedStat{name: name}
		for _, v := range vs {
			s.observe(v)
		}
		return s
	}
	ck := &checkpointState{
		fingerprint: 0xdeadbeefcafe,
		seed:        21, runs: 100, shards: 2,
		snaps: []ckShard{
			{
				done: 7, completed: 5, failTotal: 2, retried: 3, gaveUp: 1,
				stats: []namedStat{
					stat("a-zero", 1.5, -1.5),
					stat("b-negative", -0.1, -0.2, 1e-3),
					stat("c-tiny", math.SmallestNonzeroFloat64, 3e-320),
					stat("d-huge", math.MaxFloat64, math.MaxFloat64, 1),
					stat("e-inf", 1, math.Inf(-1)),
				},
				failures: []ckFailure{fail},
			},
			{done: 6, completed: 6},
		},
	}
	payload := encodeCheckpoint(ck)
	got, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("decode(encode): %v", err)
	}
	if !bytes.Equal(encodeCheckpoint(got), payload) {
		t.Error("decoded checkpoint re-encodes differently")
	}
	if got.fingerprint != ck.fingerprint || got.seed != ck.seed ||
		got.runs != ck.runs || got.shards != ck.shards {
		t.Errorf("header: got %+v, want %+v", got, ck)
	}
	if len(got.snaps) != len(ck.snaps) {
		t.Fatalf("snaps: %d, want %d", len(got.snaps), len(ck.snaps))
	}
	s, w := got.snaps[0], ck.snaps[0]
	if s.done != w.done || s.completed != w.completed || s.failTotal != w.failTotal ||
		s.retried != w.retried || s.gaveUp != w.gaveUp {
		t.Errorf("shard 0 counters: got %+v, want %+v", s, w)
	}
	if len(s.failures) != 1 || s.failures[0] != fail {
		t.Errorf("shard 0 failures: got %+v", s.failures)
	}
	if len(s.stats) != len(w.stats) {
		t.Fatalf("shard 0 stats: %d, want %d", len(s.stats), len(w.stats))
	}
	for i, ws := range w.stats {
		gs := s.stats[i]
		if gs.name != ws.name || gs.count != ws.count || gs.min != ws.min || gs.max != ws.max {
			t.Errorf("stat %q: got %+v", ws.name, gs)
		}
		// A restored sum must keep accumulating exactly: add a term on
		// both sides and compare the rounded results.
		g, wsum := gs.sum, ws.sum
		g.add(0.25)
		wsum.add(0.25)
		if a, b := g.round(), wsum.round(); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("stat %q: restored sum rounds to %v, want %v", ws.name, a, b)
		}
	}
}

// TestDecodeRejectsNonCanonicalSum: every exact sum has one encoding; a
// zero limb at a window end, a window past the top limb, a negative zero
// and a finite non-finite part are each rejected.
func TestDecodeRejectsNonCanonicalSum(t *testing.T) {
	encode := func(special float64, neg bool, lo uint8, limbs ...uint32) []byte {
		var e durable.Enc
		e.F64(special)
		e.Bool(neg)
		e.U8(lo)
		e.U8(uint8(len(limbs)))
		for _, l := range limbs {
			e.U32(l)
		}
		return e.Bytes()
	}
	for name, b := range map[string][]byte{
		"low zero limb":    encode(0, false, 3, 0, 7),
		"high zero limb":   encode(0, false, 3, 7, 0),
		"past the top":     encode(0, false, sumLimbs-1, 1, 1),
		"negative zero":    encode(0, true, 0),
		"zero with offset": encode(0, false, 5),
		"finite special":   encode(2, false, 0),
	} {
		d := ckptFormat.Dec(b)
		decSum(d)
		if err := d.Finish(); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: err = %v, want ErrCheckpoint", name, err)
		}
	}
	canonical := sumOf(-2.5, 1e300)
	var e durable.Enc
	encSum(&e, &canonical)
	d := ckptFormat.Dec(e.Bytes())
	got := decSum(d)
	if err := d.Finish(); err != nil || got.round() != canonical.round() {
		t.Errorf("canonical sum: err %v, round %v, want %v", err, got.round(), canonical.round())
	}
}

// craftedCheckpointPayload is a 72-byte payload whose framing is sound
// but whose first stats count claims 0xFFFFFFF0 entries: one shard, one
// run, then five zero counters and the crafted count.
func craftedCheckpointPayload() []byte {
	p := make([]byte, 0, 72)
	p = binary.BigEndian.AppendUint64(p, 0) // fingerprint
	p = binary.BigEndian.AppendUint64(p, 0) // seed
	p = binary.BigEndian.AppendUint64(p, 1) // runs
	p = binary.BigEndian.AppendUint32(p, 1) // shards
	p = append(p, make([]byte, 5*8)...)     // shard 0 counters
	return binary.BigEndian.AppendUint32(p, 0xFFFFFFF0)
}

// frameFile wraps payload in a well-formed durable header: magic,
// version, the payload's CRC-32 and its length.
func frameFile(magic string, version uint16, payload []byte) []byte {
	b := append([]byte(magic), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(b[4:], version)
	binary.BigEndian.PutUint32(b[6:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(b[10:], uint32(len(payload)))
	return append(b, payload...)
}

// TestResumeRejectsCraftedCount: a checkpoint whose CRC is valid but whose
// length field claims four billion stats entries must surface as
// ErrCheckpoint, not as an allocation that kills the process. Counts are
// bounded by the payload bytes left (durable.Dec.Count).
func TestResumeRejectsCraftedCount(t *testing.T) {
	spec := Spec{
		Name:       "ckpt-crafted",
		Seed:       1,
		Runs:       1,
		Matrix:     syntheticMatrix(),
		Checkpoint: filepath.Join(t.TempDir(), "campaign.ckpt"),
	}
	payload := craftedCheckpointPayload()
	if len(payload) != 72 {
		t.Fatalf("crafted payload is %d bytes, want 72", len(payload))
	}
	if err := os.WriteFile(spec.Checkpoint, frameFile("CKPT", 4, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(context.Background(), spec); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("Resume of crafted checkpoint: err = %v, want ErrCheckpoint", err)
	}
}

// FuzzDecodeCheckpoint: any payload decodes to a state or an
// ErrCheckpoint error, never a panic or a runaway allocation, and an
// accepted payload re-encodes to its exact bytes (the codec has one
// encoding per state). Seeded with the golden checkpoint's payload and
// the crafted count.
func FuzzDecodeCheckpoint(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden[14:])
	f.Add(craftedCheckpointPayload())
	f.Fuzz(func(t *testing.T, payload []byte) {
		ck, err := decodeCheckpoint(payload)
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("decode error %v is not ErrCheckpoint", err)
			}
			return
		}
		if got := encodeCheckpoint(ck); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", got, payload)
		}
	})
}
