package ipc_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// TestWriteClockRateBench measures the headline sim-rate figure — simulated
// hardware clock cycles per wall second through the full coupled switch rig
// on the batched wire protocol — and adds it to BENCH_coupling.json as
// clk_cycles_per_sec. It lives in the external test package so it can
// elaborate a coverify rig on top of this package's transports, and it runs
// after TestWriteCouplingBench in the same invocation (internal-package
// tests register first), so the read-modify-write lands on the freshly
// written report. cmd/benchgate gates the figure like a speedup: a drop
// beyond the tolerance below the committed baseline fails CI.
func TestWriteClockRateBench(t *testing.T) {
	out := os.Getenv("COUPLING_BENCH_OUT")
	if out == "" {
		t.Skip("set COUPLING_BENCH_OUT=<file> to run the sim-rate benchmark")
	}

	// The E1 benchmark shape: CBR load on all four ports at 80% of the
	// 20 MHz byte-clock line rate (1 cell / 53 cycles).
	const load = 0.8
	const perPort = 500
	period := 50 * sim.Nanosecond
	cellTime := sim.Duration(float64(53*period) / load)
	var tr [dut.SwitchPorts]coverify.PortTraffic
	for p := 0; p < dut.SwitchPorts; p++ {
		tr[p] = coverify.PortTraffic{
			Model: &traffic.CBR{Interval: cellTime},
			VCs:   coverify.PortVCs(p),
			Cells: perPort,
		}
	}
	rig := coverify.NewSwitchRig(coverify.SwitchRigConfig{Seed: 1, Traffic: tr})
	start := time.Now()
	if err := rig.Run(sim.Time(perPort+4) * cellTime); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	if wall <= 0 {
		t.Fatal("zero wall time measuring clock rate")
	}
	if !rig.Cmp.Clean() {
		t.Fatalf("benchmark workload not clean: %s", rig.Cmp.Summary())
	}
	rate := float64(rig.ClockCycles()) / wall

	doc := map[string]any{}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", out, err)
		}
	}
	doc["clk_cycles_per_sec"] = rate
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("clk_cycles_per_sec=%.0f (%d cycles in %.2fs) -> %s", rate, rig.ClockCycles(), wall, out)
}
