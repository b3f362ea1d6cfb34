package coverify

import (
	"runtime"
	"testing"
	"time"

	"castanet/internal/atm"
	"castanet/internal/dut"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// lightTraffic offers moderate CBR load on every port: per-port rate well
// under the internal bus capacity, so zero loss is expected.
func lightTraffic(cellsPerPort uint64) [dut.SwitchPorts]PortTraffic {
	var t [dut.SwitchPorts]PortTraffic
	for p := 0; p < dut.SwitchPorts; p++ {
		t[p] = PortTraffic{
			Model: traffic.NewCBR(50e3), // 50 kcell/s per port
			VCs:   PortVCs(p),
			Cells: cellsPerPort,
		}
	}
	return t
}

// TestSwitchCoVerificationClean: light routed traffic matches cell for
// cell. In the unknown_vc case, port 3 also sends every fifth cell on a VC
// that is in no table entry: the RTL switch and the reference must drop
// those identically, with the routed cells still clean and none left
// outstanding.
func TestSwitchCoVerificationClean(t *testing.T) {
	for _, tc := range []struct {
		name    string
		port3   []atm.VC
		unknown uint64
	}{
		{"routed", PortVCs(3), 0},
		{"unknown_vc", append(PortVCs(3), atm.VC{VPI: 9, VCI: 999}), 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := lightTraffic(50)
			tr[3].VCs = tc.port3
			rig := NewSwitchRig(SwitchRigConfig{Seed: 1, Traffic: tr})
			if err := rig.Run(10 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if rig.Offered != 200 {
				t.Fatalf("offered = %d", rig.Offered)
			}
			for _, m := range rig.Cmp.Mismatches() {
				t.Errorf("%v", m)
			}
			if out := rig.Cmp.Outstanding(); len(out) != 0 {
				t.Errorf("%d cells lost: %v (report: %s)", len(out), out, rig.Report())
			}
			if want := 200 - tc.unknown; rig.Cmp.Matched != want {
				t.Errorf("matched = %d, want %d", rig.Cmp.Matched, want)
			}
			if rig.DUT.UnknownVC != tc.unknown || rig.Ref.UnknownVC != tc.unknown {
				t.Errorf("unknown-VC drops: hardware %d, reference %d, want %d",
					rig.DUT.UnknownVC, rig.Ref.UnknownVC, tc.unknown)
			}
			if rig.Entity.CausalityErrors != 0 {
				t.Errorf("causality errors: %d", rig.Entity.CausalityErrors)
			}
		})
	}
}

func TestSwitchCoVerificationRemoteEqualsDirect(t *testing.T) {
	run := func(remote bool) (uint64, string) {
		rig := NewSwitchRig(SwitchRigConfig{
			Seed:    42,
			Remote:  remote,
			Traffic: lightTraffic(30),
		})
		if err := rig.Run(5 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Close is idempotent; a second call must return the same status
		// instead of blocking on the drained server-completion channel.
		first := rig.Close()
		closed := make(chan error, 1)
		go func() { closed <- rig.Close() }()
		select {
		case again := <-closed:
			if again != first {
				t.Errorf("second Close = %v, first = %v", again, first)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("second Close blocked")
		}
		return rig.Cmp.Matched, rig.Report()
	}
	mDirect, repDirect := run(false)
	mRemote, repRemote := run(true)
	if mDirect != mRemote {
		t.Errorf("direct matched %d, remote matched %d", mDirect, mRemote)
	}
	if repDirect != repRemote {
		t.Errorf("reports differ:\n direct: %s\n remote: %s", repDirect, repRemote)
	}
}

func TestSwitchCoVerificationBursty(t *testing.T) {
	// ON/OFF and Poisson traffic with CLP marking: still lossless at this
	// load, and the comparator must stay clean (headers, payload, routing).
	var tr [dut.SwitchPorts]PortTraffic
	tr[0] = PortTraffic{Model: traffic.NewPoisson(40e3), VCs: PortVCs(0), Cells: 60, CLP1: 0.3}
	tr[1] = PortTraffic{Model: &traffic.OnOff{
		PeakInterval: 20 * sim.Microsecond,
		MeanOn:       sim.Millisecond,
		MeanOff:      sim.Millisecond,
	}, VCs: PortVCs(1), Cells: 60}
	tr[2] = PortTraffic{Model: traffic.NewCBR(30e3), VCs: PortVCs(2), Cells: 60, CLP1: 1.0}
	rig := NewSwitchRig(SwitchRigConfig{Seed: 7, Traffic: tr})
	if err := rig.Run(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rig.Cmp.Clean() {
		for _, m := range rig.Cmp.Mismatches() {
			t.Errorf("%v", m)
		}
		t.Fatalf("comparison not clean: %s", rig.Report())
	}
	if rig.Cmp.Matched != 180 {
		t.Errorf("matched = %d, want 180", rig.Cmp.Matched)
	}
}

func TestSwitchCoVerificationDetectsInjectedBug(t *testing.T) {
	// Sabotage the DUT's connection table after elaboration: one VC routed
	// to the wrong output. The comparator must catch it — this is the
	// whole point of the environment.
	rig := NewSwitchRig(SwitchRigConfig{Seed: 3, Traffic: lightTraffic(20)})
	// DUT and reference share a Table pointer in this rig; give the DUT
	// its own poisoned copy.
	poisoned := DefaultTable()
	in := PortVCs(0)[0]
	route, _ := poisoned.Lookup(in)
	route.Port = (route.Port + 1) % dut.SwitchPorts
	poisoned.Remove(in)
	poisoned.Add(in, route)
	rig.DUT.Table = poisoned
	if err := rig.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var portMismatch int
	for _, m := range rig.Cmp.Mismatches() {
		if m.Kind.String() == "port" {
			portMismatch++
		}
	}
	if portMismatch == 0 {
		t.Fatalf("injected routing bug not detected: %s", rig.Report())
	}
}

func TestSwitchCoVerificationDeterministic(t *testing.T) {
	run := func() string {
		rig := NewSwitchRig(SwitchRigConfig{Seed: 99, Traffic: lightTraffic(25)})
		if err := rig.Run(8 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return rig.Report()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
}

func TestSwitchCoVerificationLagInvariant(t *testing.T) {
	rig := NewSwitchRig(SwitchRigConfig{Seed: 5, Traffic: lightTraffic(40)})
	if err := rig.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rig.Entity.LagInvariantHolds() {
		t.Error("lag invariant violated")
	}
	if rig.Entity.MaxLag <= 0 {
		t.Error("hardware never lagged? suspicious")
	}
}

func TestSwitchCoVerificationOverloadDropsAccounted(t *testing.T) {
	// Saturating load into tiny FIFOs: cells are dropped, but every
	// delivered cell must still match, and cells must be conserved:
	// offered = matched + dropped after the final drain.
	var tr [dut.SwitchPorts]PortTraffic
	for p := 0; p < dut.SwitchPorts; p++ {
		tr[p] = PortTraffic{
			// 53 octets at 20 MHz take 2.65us per cell; 3us spacing is
			// ~88% load per line, and all four lines converge on output 0.
			Model: traffic.NewCBR(1e6 / 3.0),
			VCs:   []atm.VC{{VPI: byte(p + 1), VCI: 100}}, // -> output 0
			Cells: 120,
		}
	}
	rig := NewSwitchRig(SwitchRigConfig{
		Seed:    11,
		Switch:  dut.SwitchConfig{InFifoCells: 2, OutFifoCells: 4},
		Traffic: tr,
	})
	if err := rig.Run(3 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	dropped := rig.DUT.Drops()
	if dropped == 0 {
		t.Error("4x overload into one port dropped nothing")
	}
	// Delivered cells are all correct: losses show up as outstanding, not
	// as mismatches.
	for _, m := range rig.Cmp.Mismatches() {
		t.Errorf("delivered cell corrupted under overload: %v", m)
	}
	if rig.Cmp.Matched+dropped != rig.Offered {
		t.Errorf("cell conservation violated: matched %d + dropped %d != offered %d",
			rig.Cmp.Matched, dropped, rig.Offered)
	}
}

// TestSwitchRigMallocsPerCell pins the co-simulation cell path's
// allocation budget. The E1 rig (CBR at 0.8 load on all four ports, direct
// coupling) runs at N and at 2N cells per port, and each extra cell may
// cost at most 10 heap objects: the minted cell, the reference's
// translated copy, the three codec images and the comparator's map
// growth. The network event list, the interface process, the coupling's
// queues and the cell fan-out allocate nothing per cell.
func TestSwitchRigMallocsPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the production ones")
	}
	cellTime := sim.Duration(float64(atm.CellBytes*clockPeriod) / 0.8)
	run := func(perPort uint64) (mallocs, cells uint64) {
		var tr [dut.SwitchPorts]PortTraffic
		for p := range tr {
			tr[p] = PortTraffic{Model: &traffic.CBR{Interval: cellTime}, VCs: PortVCs(p), Cells: perPort}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rig := NewSwitchRig(SwitchRigConfig{Seed: 1, Traffic: tr})
		if err := rig.Run(sim.Time(perPort+4) * cellTime); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !rig.Cmp.Clean() || rig.Cmp.Matched != dut.SwitchPorts*perPort {
			t.Fatalf("comparison not clean: %s", rig.Report())
		}
		return after.Mallocs - before.Mallocs, rig.Cmp.Matched
	}
	const n = 250
	m1, c1 := run(n)
	m2, c2 := run(2 * n)
	perCell := float64(m2-m1) / float64(c2-c1)
	t.Logf("%d cells: %d mallocs; %d cells: %d mallocs; %.2f per extra cell", c1, m1, c2, m2, perCell)
	if perCell > 10 {
		t.Errorf("%.2f mallocs per extra cell, want at most 10", perCell)
	}
}
