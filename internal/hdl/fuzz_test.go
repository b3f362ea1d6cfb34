package hdl

import (
	"testing"
)

// e1e8Seeds returns differential-harness programs shaped after the eight
// reference experiments (see internal/experiments): datapath widths,
// gate-cone depths and stimulus mixes resembling what E1–E8 drive through
// the rigs. They seed the FuzzKernelEquivalence corpus (committed under
// testdata/fuzz/) so nightly fuzzing starts from realistic netlists
// instead of empty bytes.
func e1e8Seeds() [][]byte {
	mk := func(widths []byte, gates, regs, stims int, impureEvery int) []byte {
		var p []byte
		for _, w := range widths {
			p = append(p, 0, w) // SIG
		}
		for i := 0; i < gates; i++ {
			p = append(p, 1, byte(i*37), byte(i*11), byte(i*5), byte(i*13), byte(i*7)) // GATE (a gate process)
		}
		for i := 0; i < regs; i++ {
			p = append(p, 3, byte(i*29)) // REG
		}
		for i := 0; i < stims; i++ {
			if impureEvery > 0 && i%impureEvery == 0 {
				p = append(p, 6, byte(i*31), byte(i*3), byte(i*17)) // impure vector
			} else {
				p = append(p, 4, byte(i*31), byte(i), byte(i*53), byte(i*17)) // two-state
			}
		}
		return p
	}
	return [][]byte{
		// e1: byte-serial cell datapath — 8-bit signals, shallow cones, pure CBR.
		mk([]byte{7, 7, 7, 0}, 10, 4, 40, 0),
		// e2: two coupled streams — wider mix, a little impurity at the seams.
		mk([]byte{7, 7, 15, 0, 0}, 14, 6, 48, 16),
		// e3: event-count cross-check — single bits, deep cones.
		mk([]byte{0, 0, 0, 0, 0, 0}, 24, 2, 40, 0),
		// e4: translation-table faults — X injection on header fields.
		mk([]byte{7, 3, 1, 0}, 12, 4, 48, 6),
		// e5: link faults — Z/X bursts on a shared bus (multi-driver).
		append(mk([]byte{7, 7, 0}, 8, 2, 24, 8), 7, 1, 2, 40, 7, 5, 9, 80),
		// e6: policer — counters and thresholds, 16-bit arithmetic shapes.
		mk([]byte{15, 15, 7, 0}, 16, 8, 48, 0),
		// e7: accounting — sparse events, long idle gaps.
		mk([]byte{15, 7, 0, 0}, 10, 6, 16, 10),
		// e8: board-level — everything at once, weak values included.
		mk([]byte{7, 15, 3, 0, 0, 1}, 20, 8, 56, 4),
	}
}

// elideSeeds returns differential-harness programs on which Run elides
// clock edges: only clocked processes that park and wake on stimulus
// inputs watch the clock, and the stimulus is sparse. They seed the
// FuzzKernelEquivalence corpus (testdata/fuzz/.../elide_*), so the
// eliding-versus-stepping twin starts from programs where the two differ
// in how they run.
func elideSeeds() [][]byte {
	return [][]byte{
		// Two inputs, two parkers (one waking the other), sparse two-state
		// stimulus.
		{0, 7, 0, 0, 8, 1, 2, 0x00, 8, 1, 1, 0x11,
			4, 1, 1, 0, 10, 4, 0, 0x42, 0, 40, 4, 1, 0, 0, 90, 4, 0, 0x17, 0, 160, 4, 1, 1, 0, 230},
		// A gate cone on the 8-bit inputs feeding a parker, an X burst on
		// one input, long idle gaps.
		{0, 7, 0, 7, 0, 0, 1, 2, 1, 0, 0, 1, 8, 4, 3, 0x02,
			4, 0, 0x0f, 0, 20, 6, 1, 0, 60, 4, 2, 1, 0, 61, 4, 1, 0x33, 0, 200, 4, 2, 0, 0, 250},
		// A second driver on the wake input: resolution to X and back to
		// the stimulus driver while the parkers sleep.
		{0, 0, 0, 3, 8, 2, 1, 0x01, 8, 3, 1, 0x13, 8, 1, 2, 0x22,
			4, 0, 1, 0, 8, 7, 0, 0, 100, 4, 1, 0x05, 0, 180, 4, 0, 0, 0, 240},
	}
}

// absorbSeeds returns differential-harness programs built on the
// re-assertion ops: an input re-asserting its value from a callback (op
// 12), assigning a new value and the old one again in one run (op 13), a
// bus driver stepping Z→value under the value the signal already reads
// (op 14), and a re-assertion while a delayed assignment is pending (op
// 15), beside registers that re-assert their unchanged inputs every
// clock. They seed the FuzzKernelEquivalence corpus
// (testdata/fuzz/.../absorb_*).
func absorbSeeds() [][]byte {
	return [][]byte{
		// An 8-bit and a 1-bit input, a register on each, re-assertions
		// and new-then-old pairs on both.
		{0, 7, 0, 0, 3, 1, 3, 2, 4, 0, 0x42, 0, 0, 12, 0, 4, 12, 1, 6,
			13, 0, 0x17, 8, 13, 0, 0x42, 12, 4, 1, 1, 0, 2, 13, 1, 0, 14, 12, 0, 20},
		// A bus on the 8-bit input: Z→value under an equal resolved value,
		// a re-assertion on the bus, then a conflict and release.
		{0, 7, 3, 1, 4, 0, 0x33, 0, 0, 14, 0, 0x55, 4, 14, 0, 0x33, 30, 12, 0, 50},
		// Re-assertions with a delayed assignment pending, on both inputs.
		{0, 7, 0, 3, 3, 2, 4, 0, 0x10, 0, 0, 4, 1, 5, 0, 0,
			15, 0, 0x20, 4, 15, 1, 9, 10, 12, 1, 30, 13, 1, 2, 40},
	}
}

// FuzzKernelEquivalence feeds arbitrary byte programs through the
// differential harness: any divergence between the nine-value event
// kernel and the packed data plane — in waveforms, counters,
// VCD bytes or the activity profile — is a crash, as is any divergence
// between eliding (Run) and stepping (a Step loop), or between cycle
// stepping (Run) and plain dispatch, on either kernel. The nightly
// workflow runs this for minutes; CI runs the committed corpus as
// regression tests.
func FuzzKernelEquivalence(f *testing.F) {
	seeds := append(e1e8Seeds(), elideSeeds()...)
	seeds = append(seeds, absorbSeeds()...)
	for _, seed := range append(seeds, cycleSeeds()...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		if diff, _ := compareKernels(data); diff != "" {
			t.Fatalf("kernel divergence: %s", diff)
		}
		if diff := compareEdgeSensitivity(data, true); diff != "" {
			t.Fatalf("edge-sensitivity divergence: %s", diff)
		}
		for _, compiled := range []bool{false, true} {
			if diff := compareElision(data, compiled); diff != "" {
				t.Fatalf("elision divergence compiled=%v: %s", compiled, diff)
			}
			if diff := compareCycleStep(data, compiled); diff != "" {
				t.Fatalf("cycle-stepping divergence compiled=%v: %s", compiled, diff)
			}
		}
	})
}

// TestElideSeedsElide keeps the elision corpus meaningful: every elide
// seed skips clock edges on both kernels.
func TestElideSeedsElide(t *testing.T) {
	for i, data := range elideSeeds() {
		for _, compiled := range []bool{false, true} {
			if n := runDiffKernel(data, compiled, nil, diffRun, false).elided; n == 0 {
				t.Errorf("elide seed %d compiled=%v elided nothing", i+1, compiled)
			}
		}
	}
}

// TestAbsorbSeedsAbsorb keeps the absorption corpus meaningful: on the
// packed plane every absorb seed absorbs assignments, the seeds
// between them absorb a re-assertion that disarmed the driver's earlier
// entry and decline one for a pending delayed assignment, and each agrees
// with the event kernel.
func TestAbsorbSeedsAbsorb(t *testing.T) {
	var disarmed, declined uint64
	for i, data := range absorbSeeds() {
		res := runDiffKernel(data, true, nil, diffRun, false)
		if res.err != nil {
			t.Fatalf("absorb seed %d: %v", i+1, res.err)
		}
		if res.absorbed == 0 {
			t.Errorf("absorb seed %d absorbed nothing", i+1)
		}
		t.Logf("absorb seed %d: %d absorbed, %d disarmed, %d declined",
			i+1, res.absorbed, res.stats.disarmed, res.stats.declined)
		disarmed += res.stats.disarmed
		declined += res.stats.declined
		if diff, _ := compareKernels(data); diff != "" {
			t.Errorf("absorb seed %d: %s", i+1, diff)
		}
	}
	if disarmed == 0 {
		t.Error("no absorbed re-assertion disarmed an earlier entry")
	}
	if declined == 0 {
		t.Error("no re-assertion was declined for a pending delayed assignment")
	}
}
