package coverify

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// TestProfileReachesEveryRig asserts that the harness wires the profile
// into every rig: each HDL rig publishes process activity and every rig a
// whole-run phase total, so no rig's -profile output reads all zeros.
func TestProfileReachesEveryRig(t *testing.T) {
	vc := atm.VC{VPI: 1, VCI: 10}
	for _, tc := range []struct {
		name string
		hdl  bool // the rig has an HDL kernel, so it must publish activity
		run  func(p *obs.RunProfile) error
	}{
		{"switch", true, func(p *obs.RunProfile) error {
			return NewSwitchRig(SwitchRigConfig{Seed: 1, Traffic: lightTraffic(5), Profile: p}).Run(sim.Millisecond)
		}},
		{"rtl", true, func(p *obs.RunProfile) error {
			return NewRTLRig(SwitchRigConfig{Seed: 1, Traffic: lightTraffic(5), Profile: p}).Run()
		}},
		{"policer", true, func(p *obs.RunProfile) error {
			return NewPolicerRig(PolicerRigConfig{
				Seed:      1,
				Contracts: []PolicerContract{{VC: vc, PeakInterval: 10 * sim.Microsecond, Tau: sim.Microsecond}},
				Sources:   []PolicerSource{{Model: traffic.NewCBR(100e3), VC: vc, Cells: 10}},
				Profile:   p,
			}).Run(sim.Millisecond)
		}},
		{"acct", true, func(p *obs.RunProfile) error {
			cfg := acctConfig(1)
			cfg.Profile = p
			return NewAcctRig(cfg).Run(sim.Millisecond)
		}},
		{"board", false, func(p *obs.RunProfile) error {
			rig, err := NewBoardRig(SwitchRigConfig{Seed: 1, Traffic: lightTraffic(5), Profile: p}, 4096)
			if err != nil {
				return err
			}
			return rig.Run(sim.Millisecond)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := obs.NewRunProfile()
			if err := tc.run(p); err != nil {
				t.Fatal(err)
			}
			if _, _, runs, _ := p.Activity().Totals(); tc.hdl && runs == 0 {
				t.Error("profile has no process runs")
			}
			var total int64
			for _, ph := range p.PhaseProf().Snapshot() {
				if ph.Name == "total" {
					total = ph.Ns
				}
			}
			if total <= 0 {
				t.Error("profile has no phase total")
			}
		})
	}
}
