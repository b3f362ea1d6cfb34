package coverify

import (
	"strings"
	"testing"

	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

func TestRTLRigRegression(t *testing.T) {
	rig := NewRTLRig(SwitchRigConfig{
		Seed:    1,
		Traffic: lightTraffic(40),
	})
	if err := rig.Run(); err != nil {
		t.Fatal(err)
	}
	if rig.Offered != 160 {
		t.Fatalf("offered = %d", rig.Offered)
	}
	if rig.Checked() != 160 {
		t.Errorf("checked = %d, want 160 (%s)", rig.Checked(), rig.Report())
	}
	if rig.CheckErrors() != 0 {
		t.Errorf("checker errors = %d", rig.CheckErrors())
	}
	if rig.DUT.Drops() != 0 {
		t.Errorf("drops = %d", rig.DUT.Drops())
	}
}

func TestRTLRigMoreEventsThanCosim(t *testing.T) {
	// The paper's E1 claim, as a correctness-level assertion: for the same
	// offered traffic, the pure-RTL test bench evaluates substantially
	// more HDL events than the co-simulation run.
	// Horizon sized to the traffic: 30 cells at 50 kcell/s = 0.6 ms. An
	// oversized horizon would make the co-simulation clock idle through
	// dead time and bias the comparison.
	cfg := SwitchRigConfig{Seed: 2, Traffic: lightTraffic(30)}
	co := NewSwitchRig(cfg)
	if err := co.Run(700 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !co.Cmp.Clean() {
		t.Fatalf("cosim rig not clean: %s", co.Report())
	}
	rtl := NewRTLRig(cfg)
	if err := rtl.Run(); err != nil {
		t.Fatal(err)
	}
	if rtl.Checked() == 0 {
		t.Fatal("RTL rig checked nothing")
	}
	coPerCell := float64(co.HDL.Events()) / float64(co.Cmp.Matched)
	rtlPerCell := float64(rtl.HDL.Events()) / float64(rtl.Checked())
	if rtlPerCell <= coPerCell {
		t.Errorf("RTL TB events/cell %.0f not above cosim %.0f", rtlPerCell, coPerCell)
	}
}

func TestBoardRigHardwareInLoop(t *testing.T) {
	rig, err := NewBoardRig(SwitchRigConfig{
		Seed:    3,
		Traffic: lightTraffic(40),
	}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rig.Offered != 160 {
		t.Fatalf("offered = %d", rig.Offered)
	}
	for _, m := range rig.Cmp.Mismatches() {
		t.Errorf("%v", m)
	}
	if out := rig.Cmp.Outstanding(); len(out) != 0 {
		t.Errorf("%d cells lost in hardware loop (%s)", len(out), rig.Report())
	}
	if rig.Board.TestCycles == 0 {
		t.Error("no hardware test cycles executed")
	}
	if rig.Board.HWTime == 0 || rig.Board.SWTime == 0 {
		t.Errorf("board activity accounting empty: %v", rig.Board)
	}
}

// TestBoardRigCouplingCoverage: the board coupling carries δ-window units
// like every other coupling, so the board rig's cosim.coupling group bins
// the size of every coalesced window.
func TestBoardRigCouplingCoverage(t *testing.T) {
	cover := obs.NewCoverRegistry()
	rig, err := NewBoardRig(SwitchRigConfig{Seed: 3, Traffic: lightTraffic(10), Run: obs.Run{Cover: cover}}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Run(3 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	hits := uint64(0)
	for _, g := range cover.Snapshot() {
		for _, p := range g.Points {
			if g.Name == "cosim.coupling" && p.Name == "batch_cells" {
				for _, b := range p.Bins {
					hits += b.Hits
				}
			}
		}
	}
	if hits == 0 {
		t.Error("board rig recorded no cosim.coupling batch_cells hits")
	}
}

func TestBoardRigMatchesHDLRig(t *testing.T) {
	// The same test bench verifies the RTL model and the "fabricated"
	// chip: both environments must accept the device (clean comparison)
	// for identical traffic.
	cfg := SwitchRigConfig{Seed: 4, Traffic: lightTraffic(25)}
	hdlRig := NewSwitchRig(cfg)
	if err := hdlRig.Run(8 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	boardRig, err := NewBoardRig(cfg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := boardRig.Run(8 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !hdlRig.Cmp.Clean() {
		t.Errorf("HDL rig not clean: %s", hdlRig.Report())
	}
	if !boardRig.Cmp.Clean() {
		t.Errorf("board rig not clean: %s", boardRig.Report())
	}
	if hdlRig.Cmp.Matched != boardRig.Cmp.Matched {
		t.Errorf("matched differ: hdl=%d board=%d", hdlRig.Cmp.Matched, boardRig.Cmp.Matched)
	}
}

func TestBoardRigDetectsInjectedBug(t *testing.T) {
	rig, err := NewBoardRig(SwitchRigConfig{Seed: 5, Traffic: lightTraffic(15)}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the chip's table: swap one route.
	poisoned := DefaultTable()
	in := PortVCs(0)[0]
	route, _ := poisoned.Lookup(in)
	route.Out.VCI ^= 0x01
	poisoned.Remove(in)
	poisoned.Add(in, route)
	rig.Dev.Table = poisoned
	if err := rig.Run(8 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rig.Cmp.Mismatches()) == 0 {
		t.Fatalf("silicon bug not detected: %s", rig.Report())
	}
}

func TestRTLRigBurstyTrafficCompiles(t *testing.T) {
	var tr [4]PortTraffic
	tr[0] = PortTraffic{Model: traffic.NewPoisson(40e3), VCs: PortVCs(0), Cells: 25}
	tr[2] = PortTraffic{Model: &traffic.OnOff{
		PeakInterval: 20 * sim.Microsecond,
		MeanOn:       500 * sim.Microsecond,
		MeanOff:      500 * sim.Microsecond,
	}, VCs: PortVCs(2), Cells: 25}
	rig := NewRTLRig(SwitchRigConfig{Seed: 6, Traffic: tr})
	if err := rig.Run(); err != nil {
		t.Fatal(err)
	}
	if rig.Checked() != 50 {
		t.Errorf("checked = %d, want 50 (%s)", rig.Checked(), rig.Report())
	}
}

func TestSwitchRigWaveformCapture(t *testing.T) {
	var vcd strings.Builder
	rig := NewSwitchRig(SwitchRigConfig{
		Seed:      8,
		Traffic:   lightTraffic(5),
		Waveforms: &vcd,
	})
	if err := rig.Run(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	out := vcd.String()
	for _, want := range []string{
		"$enddefinitions $end",
		"port0_rx_data",
		"port3_tx_sync",
		"#", // at least one timestamped change
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	if len(out) < 1000 {
		t.Errorf("VCD suspiciously small: %d bytes", len(out))
	}
}

func TestSwitchRigLatencyProbe(t *testing.T) {
	cells := obs.NewCellTracker(1, 0)
	rig := NewSwitchRig(SwitchRigConfig{Seed: 9, Traffic: lightTraffic(20), Run: obs.Run{Cells: cells}})
	if err := rig.Run(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Each cell's latency through the hardware: network injection to the
	// comparison of its response.
	var lat sim.Accumulator
	for _, tr := range cells.Traces() {
		var enq, cmp int64 = -1, -1
		for _, h := range tr.Hops {
			switch h.Name {
			case obs.HopNetEnqueue:
				enq = h.Sim
			case obs.HopCompare:
				cmp = h.Sim
			}
		}
		if enq >= 0 && cmp >= 0 {
			lat.Add(sim.Time(cmp - enq).Seconds())
		}
	}
	if lat.N() != 80 {
		t.Fatalf("latency samples = %d, want 80", lat.N())
	}
	// A cell needs at least 53 input clocks + bus + 53 output clocks at
	// 50ns: > 5.3us; and nothing should take longer than a few cell times
	// at this light load.
	t.Logf("latency over %d cells: %s", lat.N(), &lat)
	if lat.Min() < 5.3e-6 {
		t.Errorf("min latency %v below physical floor", lat.Min())
	}
	if lat.Max() > 50e-6 {
		t.Errorf("max latency %v implausibly high at light load", lat.Max())
	}
}
