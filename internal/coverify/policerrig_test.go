package coverify

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

func TestPolicerCoVerificationCBR(t *testing.T) {
	// A CBR stream exactly at its contract rate: everything conforms, and
	// reference and hardware agree cell for cell.
	vc := atm.VC{VPI: 1, VCI: 10}
	rig := NewPolicerRig(PolicerRigConfig{
		Seed: 1,
		Contracts: []PolicerContract{
			{VC: vc, PeakInterval: 10 * sim.Microsecond, Tau: 500 * sim.Nanosecond},
		},
		Sources: []PolicerSource{
			{Model: traffic.NewCBR(100e3), VC: vc, Cells: 100}, // exactly 10us spacing
		},
	})
	if err := rig.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rig.Cmp.Clean() {
		t.Fatalf("not clean: %s\nbad: %v", rig.Report(), rig.Cmp.Mismatches())
	}
	if rig.DUT.NonConforming != 0 || rig.Ref.NonConforming != 0 {
		t.Errorf("violations on a compliant stream: dut=%d ref=%d",
			rig.DUT.NonConforming, rig.Ref.NonConforming)
	}
	if rig.Cmp.Matched != 100 {
		t.Errorf("matched = %d", rig.Cmp.Matched)
	}
}

func TestPolicerCoVerificationViolators(t *testing.T) {
	// Offered at twice the contract rate: both sides must agree on which
	// cells violate (discard mode: survivors only).
	vc := atm.VC{VPI: 2, VCI: 20}
	rig := NewPolicerRig(PolicerRigConfig{
		Seed: 2,
		Contracts: []PolicerContract{
			{VC: vc, PeakInterval: 20 * sim.Microsecond, Tau: sim.Microsecond},
		},
		Sources: []PolicerSource{
			{Model: traffic.NewCBR(100e3), VC: vc, Cells: 100}, // 10us spacing vs 20us contract
		},
	})
	if err := rig.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rig.Cmp.Clean() {
		t.Fatalf("hardware and reference disagree: %s\nbad: %v", rig.Report(), rig.Cmp.Mismatches())
	}
	if rig.DUT.NonConforming == 0 {
		t.Fatal("no violations at 2x contract rate")
	}
	if rig.DUT.NonConforming != rig.Ref.NonConforming {
		t.Errorf("violation counts differ: dut=%d ref=%d", rig.DUT.NonConforming, rig.Ref.NonConforming)
	}
	// At 2x the rate with small tau, about half the cells violate.
	if rig.DUT.NonConforming < 40 || rig.DUT.NonConforming > 60 {
		t.Errorf("violations = %d, expected ~50", rig.DUT.NonConforming)
	}
}

func TestPolicerCoVerificationTagging(t *testing.T) {
	vc := atm.VC{VPI: 3, VCI: 30}
	rig := NewPolicerRig(PolicerRigConfig{
		Seed: 3,
		Tag:  true,
		Contracts: []PolicerContract{
			{VC: vc, PeakInterval: 20 * sim.Microsecond, Tau: sim.Microsecond},
		},
		Sources: []PolicerSource{
			{Model: traffic.NewPoisson(80e3), VC: vc, Cells: 150},
		},
	})
	if err := rig.Run(4 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rig.Cmp.Clean() {
		t.Fatalf("tagging disagreement: %s\nbad: %v", rig.Report(), rig.Cmp.Mismatches())
	}
	if rig.DUT.Tagged == 0 {
		t.Error("Poisson at 1.6x contract rate tagged nothing")
	}
	if rig.DUT.Tagged != rig.Ref.Tagged {
		t.Errorf("tag counts differ: dut=%d ref=%d", rig.DUT.Tagged, rig.Ref.Tagged)
	}
}

func TestPolicerCoVerificationMultiVC(t *testing.T) {
	// Two policed connections and one unpoliced, multiplexed on one line.
	vcA := atm.VC{VPI: 1, VCI: 1}
	vcB := atm.VC{VPI: 1, VCI: 2}
	vcC := atm.VC{VPI: 1, VCI: 3}
	rig := NewPolicerRig(PolicerRigConfig{
		Seed: 4,
		Contracts: []PolicerContract{
			{VC: vcA, PeakInterval: 25 * sim.Microsecond, Tau: 2 * sim.Microsecond},
			{VC: vcB, PeakInterval: 50 * sim.Microsecond, Tau: 2 * sim.Microsecond},
		},
		Sources: []PolicerSource{
			{Model: traffic.NewCBR(45e3), VC: vcA, Cells: 60},     // slightly over contract
			{Model: traffic.NewCBR(19e3), VC: vcB, Cells: 40},     // conforming
			{Model: traffic.NewPoisson(20e3), VC: vcC, Cells: 40}, // unpoliced
		},
	})
	if err := rig.Run(4 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rig.Cmp.Clean() {
		t.Fatalf("multi-VC disagreement: %s\nbad: %v", rig.Report(), rig.Cmp.Mismatches())
	}
	if rig.DUT.Passed != 40 {
		t.Errorf("unpoliced passed = %d, want 40", rig.DUT.Passed)
	}
	if rig.DUT.NonConforming == 0 {
		t.Error("over-contract CBR not policed")
	}
}

func TestSlotAligned(t *testing.T) {
	m := SlotAligned{Model: traffic.NewPoisson(1e6), Period: 50 * sim.Nanosecond}
	rng := sim.NewRNG(5)
	for i := 0; i < 1000; i++ {
		d := m.Next(rng)
		if d%(50*sim.Nanosecond) != 0 {
			t.Fatalf("interval %v not slot aligned", d)
		}
		if d < 50*sim.Nanosecond {
			t.Fatalf("interval %v below one slot", d)
		}
	}
}
