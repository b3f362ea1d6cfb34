package ipc_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/hdl"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// rtlCellRate runs the E1 pure-RTL regression bench — the workload whose
// every signal toggle lives inside one HDL kernel, so it measures the
// kernel itself rather than the coupling — and returns the best
// cells-checked-per-wall-second of three runs. nine runs the kernel on
// the plain nine-value event kernel instead of the packed data plane
// (hdl.UseNineValuePlane).
func rtlCellRate(t *testing.T, perPort uint64, nine bool) float64 {
	t.Helper()
	defer hdl.UseNineValuePlane(nine)()
	const load = 0.8
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
	best := 0.0
	for run := 0; run < 3; run++ {
		rig := coverify.NewRTLRig(coverify.SwitchRigConfig{
			Seed: 1, Traffic: tr,
		})
		start := time.Now()
		if err := rig.Run(); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		if wall <= 0 {
			t.Fatal("zero wall time measuring cell rate")
		}
		if rig.CheckErrors() != 0 || rig.Checked() != rig.Offered {
			t.Fatalf("benchmark workload not clean: offered %d, checked %d, %d checker errors", rig.Offered, rig.Checked(), rig.CheckErrors())
		}
		if rate := float64(rig.Checked()) / wall; rate > best {
			best = rate
		}
	}
	return best
}

// TestWriteCompiledBench measures the HDL kernel's cell throughput on the
// E1 RTL-bench workload on both data planes and adds three figures to
// BENCH_coupling.json: hdl_cells_per_sec (the packed plane, gated
// higher-is-better by cmd/benchgate), hdl_cells_per_sec_event (the plain
// nine-value event kernel, informational), and speedup_compiled_e1 (their
// ratio, gated by the speedup_ rule — the committed claim that the packed
// plane carries at least ~5x on this workload survives host changes
// because both legs run in the same process). It sets the process-wide
// plane seam, so it must not run in parallel.
func TestWriteCompiledBench(t *testing.T) {
	out := os.Getenv("COUPLING_BENCH_OUT")
	if out == "" {
		t.Skip("set COUPLING_BENCH_OUT=<file> to run the compiled-kernel benchmark")
	}

	const perPort = 1000
	compiled := rtlCellRate(t, perPort, false)
	event := rtlCellRate(t, perPort, true)
	if event <= 0 {
		t.Fatal("event-kernel rate is zero")
	}

	doc := map[string]any{}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", out, err)
		}
	}
	doc["hdl_cells_per_sec"] = compiled
	doc["hdl_cells_per_sec_event"] = event
	doc["speedup_compiled_e1"] = compiled / event
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("hdl_cells_per_sec=%.0f event=%.0f speedup=%.2fx -> %s",
		compiled, event, compiled/event, out)
}
