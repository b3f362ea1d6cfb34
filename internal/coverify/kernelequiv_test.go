package coverify

import (
	"bytes"
	"fmt"
	"testing"

	"castanet/internal/hdl"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// These tests lift the kernel-equivalence property (internal/hdl's
// differential harness) to the full rigs: with identical configuration,
// a run on the packed data plane and a run on the plain nine-value event
// kernel (hdl.UseNineValuePlane) must produce byte-identical VCD
// waveforms, identical kernel counters and identical end-of-run reports.
// This is the contract that lets every rig run on the packed plane
// without touching a single golden digest. The absorbed-assignment
// counter shows which plane ran: the packed plane absorbs re-assertions,
// the nine-value plane never does. The tests set a process-wide seam, so
// they must not run in parallel.

// onPlane runs fn with every simulator it starts on the nine-value plane
// (nine) or the packed plane, and checks from reg's absorbed-assignment
// counter that the choice took effect.
func onPlane(t *testing.T, nine bool, reg *obs.Registry, fn func()) {
	t.Helper()
	restore := hdl.UseNineValuePlane(nine)
	fn()
	restore()
	absorbed := reg.Counter("hdl.sim.absorbed_assignments").Value()
	if (absorbed == 0) != nine {
		t.Fatalf("nine-value plane %v: %d absorbed assignments", nine, absorbed)
	}
}

type rigKernelObs struct {
	vcd    string
	events uint64
	runs   uint64
	deltas uint64
	points uint64
	report string
}

func (o rigKernelObs) counters() string {
	return fmt.Sprintf("events=%d runs=%d deltas=%d points=%d", o.events, o.runs, o.deltas, o.points)
}

func diffRigObs(t *testing.T, name string, ev, cp rigKernelObs) {
	t.Helper()
	if ev.counters() != cp.counters() {
		t.Errorf("%s: counter divergence:\n nine-value: %s\n packed:     %s", name, ev.counters(), cp.counters())
	}
	if ev.report != cp.report {
		t.Errorf("%s: report divergence:\n nine-value: %s\n packed:     %s", name, ev.report, cp.report)
	}
	if ev.vcd != cp.vcd {
		t.Errorf("%s: VCD divergence (%d vs %d bytes)", name, len(ev.vcd), len(cp.vcd))
	}
}

// TestRTLRigKernelEquivalence runs the pure-RTL regression bench both
// ways, watching every signal in the design.
func TestRTLRigKernelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(nine bool) rigKernelObs {
				reg := obs.NewRegistry()
				rig := NewRTLRig(SwitchRigConfig{
					Seed:    seed,
					Traffic: lightTraffic(10 + seed%7),
					Run:     obs.Run{Registry: reg},
				})
				var buf bytes.Buffer
				vcd := hdl.NewVCD(&buf, rig.HDL)
				onPlane(t, nine, reg, func() {
					if err := rig.Run(); err != nil {
						t.Fatal(err)
					}
				})
				vcd.Close()
				return rigKernelObs{
					vcd:    buf.String(),
					events: rig.HDL.Events(),
					runs:   rig.HDL.ProcessRuns(),
					deltas: rig.HDL.DeltaCycles(),
					points: rig.HDL.TimePoints(),
					report: rig.Report(),
				}
			}
			diffRigObs(t, "rtlrig", run(true), run(false))
		})
	}
}

// TestSwitchRigKernelEquivalence runs the co-simulation rig both ways —
// the network scheduler, coupling and comparison engine all downstream
// of the kernel under test — with the port-waveform VCD attached.
func TestSwitchRigKernelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(nine bool) rigKernelObs {
				var buf bytes.Buffer
				reg := obs.NewRegistry()
				rig := NewSwitchRig(SwitchRigConfig{
					Seed:      seed,
					Traffic:   lightTraffic(15),
					Waveforms: &buf,
					Run:       obs.Run{Registry: reg},
				})
				onPlane(t, nine, reg, func() {
					if err := rig.Run(4 * sim.Millisecond); err != nil {
						t.Fatal(err)
					}
				})
				if len(rig.Cmp.Mismatches()) != 0 {
					t.Fatalf("mismatches on the nine-value plane %v: %v", nine, rig.Cmp.Mismatches())
				}
				return rigKernelObs{
					vcd:    buf.String(),
					events: rig.HDL.Events(),
					runs:   rig.HDL.ProcessRuns(),
					deltas: rig.HDL.DeltaCycles(),
					points: rig.HDL.TimePoints(),
					report: rig.Report(),
				}
			}
			diffRigObs(t, "switchrig", run(true), run(false))
		})
	}
}
