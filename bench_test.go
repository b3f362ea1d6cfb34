// Benchmarks regenerating every quantitative artifact of the paper's
// evaluation; one benchmark (family) per experiment of DESIGN.md §4.
// Run with: go test -bench=. -benchmem
package castanet_test

import (
	"fmt"
	"testing"

	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/experiments"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// benchTraffic offers CBR load on all four switch ports.
func benchTraffic(cellsPerPort uint64, load float64) [dut.SwitchPorts]coverify.PortTraffic {
	period := 50 * sim.Nanosecond
	cellTime := sim.Duration(float64(53*period) / load)
	var tr [dut.SwitchPorts]coverify.PortTraffic
	for p := 0; p < dut.SwitchPorts; p++ {
		tr[p] = coverify.PortTraffic{
			Model: &traffic.CBR{Interval: cellTime},
			VCs:   coverify.PortVCs(p),
			Cells: cellsPerPort,
		}
	}
	return tr
}

func benchHorizon(cellsPerPort uint64, load float64) sim.Time {
	period := 50 * sim.Nanosecond
	cellTime := sim.Duration(float64(53*period) / load)
	return sim.Time(cellsPerPort+4) * cellTime
}

// BenchmarkE1_CosimThroughput regenerates the co-simulation half of the
// §2 performance paragraph: cells through the 4-port switch plus global
// control unit, test bench at the network level. The paper reports ~30 s
// for 10,000 cells (~1,300 clock cycles/s) on an UltraSparc.
//
// Its deterministic figure is allocs/op: it counts work, not host speed
// (about 5 heap objects per verified cell, DESIGN.md §22, plus the rig's
// elaboration), so it reads the same on any machine for the same -benchtime
// Nx and moves only when the cell path's allocations do. ns/op, cells/s
// and clk-cycles/s are wall-clock figures and carry the host's noise.
//
// To size a kernel change, build the parent's and the change's test
// binaries once and alternate them on one CPU, comparing pair by pair,
// since a shared host is noisy:
//
//	go test -c -o /tmp/change.test .   # and the parent's as /tmp/parent.test
//	for i in $(seq 10); do for b in parent change; do
//		GOMAXPROCS=1 /tmp/$b.test -test.run '^$' -test.bench E1_Cosim -test.benchtime 40x
//	done; done
func BenchmarkE1_CosimThroughput(b *testing.B) {
	const cellsPerPort, load = 250, 0.8
	b.ReportAllocs()
	var cells, cycles uint64
	for i := 0; i < b.N; i++ {
		rig := coverify.NewSwitchRig(coverify.SwitchRigConfig{
			Seed:    uint64(i + 1),
			Traffic: benchTraffic(cellsPerPort, load),
		})
		if err := rig.Run(benchHorizon(cellsPerPort, load)); err != nil {
			b.Fatal(err)
		}
		if !rig.Cmp.Clean() {
			b.Fatalf("comparison not clean: %s", rig.Report())
		}
		cells += rig.Cmp.Matched
		cycles += rig.ClockCycles()
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "clk-cycles/s")
}

// BenchmarkE1_PureRTLThroughput is the baseline: the same workload as a
// traditional RTL regression test bench (~300 clock cycles/s in the
// paper). It is all HDL kernel and device model, so it sizes a kernel
// change with the alternating command of BenchmarkE1_CosimThroughput and
// -test.bench E1_PureRTL.
func BenchmarkE1_PureRTLThroughput(b *testing.B) {
	const cellsPerPort, load = 250, 0.8
	b.ReportAllocs()
	var cells, cycles uint64
	for i := 0; i < b.N; i++ {
		rig := coverify.NewRTLRig(coverify.SwitchRigConfig{
			Seed:    uint64(i + 1),
			Traffic: benchTraffic(cellsPerPort, load),
		})
		if err := rig.Run(); err != nil {
			b.Fatal(err)
		}
		if rig.CheckErrors() != 0 {
			b.Fatalf("%d checker errors in %d checked cells", rig.CheckErrors(), rig.Checked())
		}
		cells += rig.Checked()
		cycles += rig.ClockCycles()
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "clk-cycles/s")
}

// BenchmarkE2_SyncWindow sweeps the conservative protocol's processing
// window δ (Fig. 3, §3.1), reporting message and window counts.
func BenchmarkE2_SyncWindow(b *testing.B) {
	period := 50 * sim.Nanosecond
	for _, deltaCycles := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("delta=%d", deltaCycles), func(b *testing.B) {
			const cellsPerPort, load = 100, 0.6
			var msgs, windows uint64
			var maxLag sim.Duration
			for i := 0; i < b.N; i++ {
				rig := coverify.NewSwitchRig(coverify.SwitchRigConfig{
					Seed:      uint64(i + 1),
					Traffic:   benchTraffic(cellsPerPort, load),
					Delta:     sim.Duration(deltaCycles) * period,
					SyncEvery: 50 * sim.Microsecond,
				})
				if err := rig.Run(benchHorizon(cellsPerPort, load)); err != nil {
					b.Fatal(err)
				}
				if rig.Entity.CausalityErrors != 0 {
					b.Fatal("causality error under conservative protocol")
				}
				if !rig.Cmp.Clean() {
					b.Fatalf("comparison not clean: %s", rig.Report())
				}
				msgs += rig.Entity.Received
				windows += rig.Entity.Windows
				if rig.Entity.MaxLag > maxLag {
					maxLag = rig.Entity.MaxLag
				}
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "messages/run")
			b.ReportMetric(float64(windows)/float64(b.N), "windows/run")
			b.ReportMetric(maxLag.Seconds()*1e6, "max-lag-us")
		})
	}
}

// BenchmarkE3_TimeScale measures the Fig.-4/§3.2 abstraction gap: HDL
// events and clock cycles per network-simulator event.
func BenchmarkE3_TimeScale(b *testing.B) {
	const cellsPerPort, load = 100, 0.25
	var netEv, hdlEv, cycles, cells uint64
	for i := 0; i < b.N; i++ {
		rig := coverify.NewSwitchRig(coverify.SwitchRigConfig{
			Seed:    uint64(i + 1),
			Traffic: benchTraffic(cellsPerPort, load),
		})
		if err := rig.Run(benchHorizon(cellsPerPort, load)); err != nil {
			b.Fatal(err)
		}
		netEv += rig.Net.Sched.Executed()
		hdlEv += rig.HDL.Events()
		cycles += rig.ClockCycles()
		cells += rig.Cmp.Matched
	}
	b.ReportMetric(float64(hdlEv)/float64(netEv), "hdl-events/net-event")
	b.ReportMetric(float64(cycles)/float64(cells), "clk-cycles/cell")
}

// BenchmarkE4_BoardCycle sweeps the hardware test cycle duration (§3.3,
// Fig. 5): deeper stimulus memory amortizes SCSI software activity.
func BenchmarkE4_BoardCycle(b *testing.B) {
	for _, depth := range []int{128, 1024, 8192} {
		b.Run(fmt.Sprintf("mem=%d", depth), func(b *testing.B) {
			const cellsPerPort, load = 100, 0.6
			var rtFrac float64
			var testCycles uint64
			for i := 0; i < b.N; i++ {
				rig, err := coverify.NewBoardRig(coverify.SwitchRigConfig{
					Seed:    uint64(i + 1),
					Traffic: benchTraffic(cellsPerPort, load),
				}, depth)
				if err != nil {
					b.Fatal(err)
				}
				if err := rig.Run(benchHorizon(cellsPerPort, load)); err != nil {
					b.Fatal(err)
				}
				if !rig.Cmp.Clean() {
					b.Fatalf("comparison not clean: %s", rig.Report())
				}
				rtFrac += rig.Board.RealTimeFraction()
				testCycles += rig.Board.TestCycles
			}
			b.ReportMetric(100*rtFrac/float64(b.N), "realtime-%")
			b.ReportMetric(float64(testCycles)/float64(b.N), "test-cycles/run")
		})
	}
}

// BenchmarkE5_Accounting regenerates the §4 case study: the accounting
// unit verified against its algorithmic reference.
func BenchmarkE5_Accounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Factory{}.E5(uint64(i + 1))
		if r.CounterMismatches != 0 {
			b.Fatalf("counter mismatches: %d", r.CounterMismatches)
		}
	}
}

// BenchmarkE6_EventVsCycle regenerates the conclusions' ablation:
// event-driven versus cycle-based execution of the same switch.
func BenchmarkE6_EventVsCycle(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r := experiments.Factory{}.E6(400, uint64(i+1))
		if !r.Equivalent {
			b.Fatal("engines disagree")
		}
		speedup += r.Speedup
	}
	b.ReportMetric(speedup/float64(b.N), "cycle-vs-event-speedup")
}

// BenchmarkE7_Policing regenerates the UPC extension experiment: the RTL
// policer against the GCRA reference at twice the contract rate.
func BenchmarkE7_Policing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vc := coverify.PortVCs(0)[0]
		rig := coverify.NewPolicerRig(coverify.PolicerRigConfig{
			Seed: uint64(i + 1),
			Contracts: []coverify.PolicerContract{
				{VC: vc, PeakInterval: 20 * sim.Microsecond, Tau: 2 * sim.Microsecond},
			},
			Sources: []coverify.PolicerSource{
				{Model: traffic.NewPoisson(100e3), VC: vc, Cells: 200},
			},
		})
		if err := rig.Run(3 * sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		if !rig.Cmp.Clean() {
			b.Fatalf("policing disagreement: %s", rig.Report())
		}
	}
}

// BenchmarkE8_FaultCoverage regenerates the fault-injection extension: a
// 64-defect campaign under full-mesh traffic must reach 100% detection.
func BenchmarkE8_FaultCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Factory{}.E8(uint64(i + 1))
		if r.Rows[len(r.Rows)-1].Coverage != 1.0 {
			b.Fatal("full-traffic campaign missed faults")
		}
	}
}
