package coverify_test

import (
	"testing"

	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// campaign16Run returns the switch-rig configuration of run i of the
// switch campaign at seed 1 and the bound to run it to. It derives the
// traffic from the run's seed exactly as the campaign's switch cell does,
// so the 16 runs it describes replay the campaign's first 16 outside the
// campaign engine.
func campaign16Run(i uint64) (coverify.SwitchRigConfig, sim.Time) {
	rng := sim.NewRNG(sim.DeriveSeed(1, i))
	var tr [dut.SwitchPorts]coverify.PortTraffic
	ports, n := 1+rng.Intn(dut.SwitchPorts), uint64(12+rng.Intn(17))
	horizon := sim.Time(0)
	for p := 0; p < ports; p++ {
		rate := 60e3 + 60e3*rng.Float64()
		tr[p] = coverify.PortTraffic{Model: traffic.NewCBR(rate), VCs: coverify.PortVCs(p), Cells: n}
		horizon = max(horizon, sim.FromSeconds(float64(n+2)/rate))
	}
	return coverify.SwitchRigConfig{Seed: rng.Uint64(), Traffic: tr}, horizon + 200*sim.Microsecond
}

// BenchmarkCampaign16 runs the 16 switch-rig runs of campaign16Run per
// op: the switch campaign's rig and kernel work without the campaign
// engine, so a kernel change can be sized in seconds.
//
//	go test -run '^$' -bench Campaign16 -count 8 ./internal/coverify
func BenchmarkCampaign16(b *testing.B) {
	b.ReportAllocs()
	var cells uint64
	for i := 0; i < b.N; i++ {
		for r := uint64(0); r < 16; r++ {
			cfg, bound := campaign16Run(r)
			rig := coverify.NewSwitchRig(cfg)
			if err := rig.Run(bound); err != nil {
				b.Fatal(err)
			}
			cells += rig.Offered
		}
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}
