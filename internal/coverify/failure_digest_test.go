package coverify

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/dut"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// TestFailureDigestGolden pins a tampered switch run's triage bundle byte
// for byte: the first mismatch with its trace ID, the cell's per-hop
// waterfall and the flight-recorder dump, with every cell traced. Every
// response is tampered, so the 256-note recorder wraps and its headline
// counts the overwritten notes. Re-record with
//
//	go test ./internal/coverify -run TestFailureDigestGolden -update
func TestFailureDigestGolden(t *testing.T) {
	var tr [dut.SwitchPorts]PortTraffic
	for p := 0; p < dut.SwitchPorts; p++ {
		tr[p] = PortTraffic{Model: traffic.NewCBR(100e3), VCs: PortVCs(p), Cells: 80}
	}
	rig := NewSwitchRig(SwitchRigConfig{
		Seed: 11, Traffic: tr,
		Run:            obs.Run{Cells: obs.NewCellTracker(1, 0), Recorder: obs.NewTracer(obs.DefaultRecorderCap)},
		TamperResponse: func(c *atm.Cell) { c.Payload[atm.PayloadBytes-1] ^= 0xFF },
	})
	if err := rig.Run(900 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if rig.Cmp.Clean() {
		t.Fatal("tampered run compared clean")
	}
	goldenCompare(t, "failure_digest.txt", rig.FailureDigest())
}
