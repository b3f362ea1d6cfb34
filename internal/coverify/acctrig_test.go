package coverify

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/conformance"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

func acctConfig(seed uint64) AcctRigConfig {
	vcs := []atm.VC{
		{VPI: 1, VCI: 10},
		{VPI: 1, VCI: 11},
		{VPI: 2, VCI: 20},
	}
	return AcctRigConfig{
		Seed:   seed,
		VCs:    vcs,
		Tariff: atm.Tariff{CellsPerUnit: 10},
		Sources: []AcctSource{
			{Model: traffic.NewCBR(50e3), VC: 0, Cells: 60},
			{Model: traffic.NewPoisson(40e3), VC: 1, Cells: 40, CLP1: 0.5},
			{Model: traffic.NewCBR(30e3), VC: 2, Cells: 30, CLP1: 1.0},
			{Model: traffic.NewPoisson(20e3), VC: -1, Cells: 10}, // unregistered
		},
	}
}

func TestAccountingCoVerification(t *testing.T) {
	rig := NewAcctRig(acctConfig(1))
	if err := rig.Run(3 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rig.Offered != 140 {
		t.Fatalf("offered = %d", rig.Offered)
	}
	for _, m := range rig.Compare() {
		t.Errorf("counter mismatch: %+v", m)
	}
	if rig.DUT.Observed == 0 {
		t.Fatal("hardware metered nothing")
	}
	// Unregistered traffic must raise hardware exceptions.
	if rig.DUT.Unregistered != 10 {
		t.Errorf("unregistered = %d, want 10", rig.DUT.Unregistered)
	}
	if rig.Exceptions != 10 {
		t.Errorf("exception strobes = %d, want 10", rig.Exceptions)
	}
	// Charging units agree at the billing level.
	for _, vc := range rig.Cfg.VCs {
		ref, dutUnits := rig.Units(vc)
		if ref != dutUnits {
			t.Errorf("units for %v: ref %d, dut %d", vc, ref, dutUnits)
		}
	}
}

func TestAccountingMPEGTrace(t *testing.T) {
	// The paper's motivating stimulus: an MPEG trace driving the
	// hardware. The reference and the RTL unit must agree cell for cell.
	vcs := []atm.VC{{VPI: 5, VCI: 50}}
	cfg := AcctRigConfig{
		Seed:   2,
		VCs:    vcs,
		Tariff: atm.Tariff{CellsPerUnit: 50},
		Sources: []AcctSource{
			{Model: traffic.DefaultMPEG(3 * sim.Microsecond), VC: 0, Cells: 400},
		},
	}
	rig := NewAcctRig(cfg)
	if err := rig.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rig.Offered != 400 {
		t.Fatalf("offered = %d", rig.Offered)
	}
	if len(rig.Compare()) != 0 {
		t.Fatalf("MPEG run mismatches: %v (%s)", rig.Compare(), rig.Report())
	}
	ref, dutUnits := rig.Units(vcs[0])
	if ref == 0 {
		t.Error("no charging units accumulated over an MPEG trace")
	}
	if ref != dutUnits {
		t.Errorf("units: ref %d, dut %d", ref, dutUnits)
	}
}

func TestAccountingConformanceVectors(t *testing.T) {
	known := atm.VC{VPI: 1, VCI: 10}
	cfg := AcctRigConfig{
		Seed:   3,
		VCs:    []atm.VC{known},
		Tariff: atm.Tariff{CellsPerUnit: 1},
	}
	rig := NewAcctRig(cfg)
	suite := conformance.StandardSuite(known)
	at := sim.Microsecond
	var expectMetered, expectExceptions uint64
	for i := range suite.Vectors {
		v := &suite.Vectors[i]
		rig.InjectVector(at, v.Image)
		at += 200 * sim.Microsecond
		c := v.Cell()
		switch {
		case c == nil:
			// HEC-corrupt: invisible to the meter.
		case c.IsIdle() || c.IsUnassigned():
			// Transparent.
		case c.VC() == known:
			expectMetered++
		default:
			expectExceptions++
		}
	}
	if err := rig.Run(at + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	slot, _ := rig.DUT.Slot(known)
	if got := uint64(rig.DUT.Counter(slot, false)); got != expectMetered {
		t.Errorf("metered = %d, want %d", got, expectMetered)
	}
	if rig.DUT.Unregistered != expectExceptions {
		t.Errorf("unregistered = %d, want %d", rig.DUT.Unregistered, expectExceptions)
	}
	if rig.Exceptions != expectExceptions {
		t.Errorf("exception strobes = %d, want %d", rig.Exceptions, expectExceptions)
	}
}

func TestAccountingDeterministic(t *testing.T) {
	run := func() string {
		rig := NewAcctRig(acctConfig(77))
		if err := rig.Run(3 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return rig.Report()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("diverged:\n%s\n%s", a, b)
	}
}

// TestAcctVectorsOpenNoTrace: a raw conformance vector carries no trace
// ID, so committing it to the wire opens no cell trace — its payload is
// not a sequence stamp — and each traced cell's waterfall holds exactly
// one hdl.commit hop.
func TestAcctVectorsOpenNoTrace(t *testing.T) {
	cells := obs.NewCellTracker(1, 0)
	cfg := acctConfig(3)
	cfg.Run = obs.Run{Cells: cells}
	rig := NewAcctRig(cfg)
	suite := conformance.StandardSuite(cfg.VCs[0])
	at := sim.Microsecond
	for i := range suite.Vectors {
		rig.InjectVector(at, suite.Vectors[i].Image)
		at += 60 * sim.Microsecond
	}
	if err := rig.Run(at + 3*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, tr := range cells.Traces() {
		if tr.ID == 0 || tr.ID > rig.Offered {
			t.Errorf("trace 0x%x opened for no offered cell: %v", tr.ID, tr.Hops)
		}
	}
	tr, ok := cells.Trace(0x1)
	if !ok {
		t.Fatal("cell 0x1 not traced")
	}
	commits := 0
	for _, h := range tr.Hops {
		if h.Name == obs.HopHDLCommit {
			commits++
		}
	}
	if commits != 1 {
		t.Errorf("cell 0x1 has %d hdl.commit hops, want 1: %v", commits, tr.Hops)
	}
}
