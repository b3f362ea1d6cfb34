package faultsim_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"castanet/internal/cosim"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/experiments"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// The link-fault side of fault injection: the faults campaign's link
// stack (experiments.RemoteLink/RunLink over Reliable(Fault(pipe))) must
// mask every recoverable link fault, so that only planted device defects
// can reach the verdict, and must turn a partition into a typed coupling
// abort instead of a hang or a silently wrong result.

// linkRig elaborates the switch rig of the faults campaign for one link
// profile (nil: a healthy link): one seed and one traffic mix (24 CBR
// cells on each of ports 0 and 1) for every profile, coupled by
// RemoteLink with a fixed fault seed. The registry carries the
// injected-fault counters.
func linkRig(profile *experiments.LinkFaultProfile) (*coverify.SwitchRig, sim.Time, *obs.Registry) {
	var tr [dut.SwitchPorts]coverify.PortTraffic
	for _, p := range []int{0, 1} {
		tr[p] = coverify.PortTraffic{Model: traffic.NewCBR(100e3), VCs: coverify.PortVCs(p), Cells: 24}
	}
	reg := obs.NewRegistry()
	cfg := coverify.SwitchRigConfig{Seed: 7, Traffic: tr, Run: obs.Run{Registry: reg}}
	experiments.RemoteLink(&cfg, profile, sim.NewRNG(99))
	return coverify.NewSwitchRig(cfg), 2 * sim.Millisecond, reg
}

// cleanReport is the report of the healthy-link run every masking profile
// must reproduce byte for byte.
func cleanReport(t *testing.T) string {
	t.Helper()
	rig, horizon, _ := linkRig(nil)
	if done, err := experiments.RunLink(context.Background(), rig, horizon, nil); done || err != nil {
		t.Fatalf("clean link: done=%v err=%v", done, err)
	}
	if !rig.Cmp.Clean() {
		t.Fatalf("clean link not clean: %s", rig.Report())
	}
	return rig.Report()
}

// assertMasked runs one masking profile and requires faults to have been
// injected and the report to equal want.
func assertMasked(t *testing.T, p experiments.LinkFaultProfile, want string) {
	t.Helper()
	rig, horizon, reg := linkRig(&p)
	if done, err := experiments.RunLink(context.Background(), rig, horizon, &p); done || err != nil {
		t.Errorf("%s: done=%v err=%v, want a completed run", p.Name, done, err)
		return
	}
	var injected uint64
	for _, c := range []string{"dropped", "duplicated", "corrupted", "delayed"} {
		injected += reg.Counter("ipc.fault." + c).Value()
	}
	if injected == 0 {
		t.Errorf("%s: no link fault injected; the comparison proves nothing", p.Name)
	}
	if got := rig.Report(); got != want {
		t.Errorf("%s: degraded link leaked into the report:\n got %s\nwant %s", p.Name, got, want)
	}
}

func profile(t *testing.T, keep func(experiments.LinkFaultProfile) bool) experiments.LinkFaultProfile {
	t.Helper()
	for _, p := range experiments.LinkFaultProfiles() {
		if keep(p) {
			return p
		}
	}
	t.Fatalf("no such profile in %v", experiments.LinkFaultProfiles())
	return experiments.LinkFaultProfile{}
}

func TestChannelLossAndCorruptionMasked(t *testing.T) {
	// Acceptance: 5% drop plus 1% corruption on both directions must
	// produce a report byte-identical to the clean-link run.
	p := profile(t, func(p experiments.LinkFaultProfile) bool {
		return p.Dir.Drop == 0.05 && p.Dir.Corrupt == 0.01 && !p.Abort
	})
	assertMasked(t, p, cleanReport(t))
}

func TestChannelPartitionAbortsTyped(t *testing.T) {
	// Acceptance: a permanent partition must surface as a typed,
	// timeout- or closed-class CouplingError from the rig's Run — no
	// panic, no hang — within the retry budget, and RunLink must settle
	// that abort as the pass.
	partition := profile(t, func(p experiments.LinkFaultProfile) bool { return p.Abort })
	type outcome struct {
		runErr  error
		done    bool
		verdict error
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		rig, horizon, _ := linkRig(&partition)
		o.runErr = rig.Run(horizon)
		rig.Close()
		rig, horizon, _ = linkRig(&partition)
		o.done, o.verdict = experiments.RunLink(context.Background(), rig, horizon, &partition)
		ch <- o
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(60 * time.Second):
		t.Fatal("partitioned run hung: the retry budget never fired")
	}
	var ce *cosim.CouplingError
	if !errors.As(o.runErr, &ce) {
		t.Fatalf("partition ended with %v, want a *cosim.CouplingError", o.runErr)
	}
	if ce.Class != cosim.ClassTimeout && ce.Class != cosim.ClassClosed {
		t.Errorf("partition abort class %v, want timeout or closed", ce.Class)
	}
	if !o.done || o.verdict != nil {
		t.Errorf("RunLink on the partition: done=%v err=%v, want the abort as the pass", o.done, o.verdict)
	}
}

func TestDefaultChannelFaultSweep(t *testing.T) {
	// Every masking entry of the campaign's profile menu must give a
	// report byte-identical to the clean-link run.
	want := cleanReport(t)
	for _, p := range experiments.LinkFaultProfiles() {
		if !p.Abort {
			assertMasked(t, p, want)
		}
	}
}
