package faultsim_test

import (
	"context"
	"strings"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/campaign"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/experiments"
	"castanet/internal/faultsim"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// workload offers CBR traffic on the given ports, covering that port's
// four connections of the default table.
func workload(ports ...int) func(*coverify.SwitchRigConfig) {
	return func(cfg *coverify.SwitchRigConfig) {
		for _, p := range ports {
			cfg.Traffic[p] = coverify.PortTraffic{
				Model: traffic.NewCBR(100e3),
				VCs:   coverify.PortVCs(p),
				Cells: 24,
			}
		}
	}
}

// sweep runs one bench's table-fault sweep on the campaign engine with
// coverage on and returns the summary and, by fault, whether it was
// detected.
func sweep(t *testing.T, seed uint64, bench func(*coverify.SwitchRigConfig), horizon sim.Time,
	faults []faultsim.Fault) (*campaign.Summary, map[string]bool) {

	t.Helper()
	matrix := experiments.TableFaultCells(experiments.CampaignConfig{}, "bench", bench, horizon, faults)
	detected := map[string]bool{}
	sum, err := campaign.Execute(context.Background(), campaign.Spec{
		Name: "tablefaults", Seed: seed, Runs: len(matrix), Matrix: matrix, Coverage: true,
		OnResult: func(res campaign.Result) {
			if d, ok := res.Value.(bool); ok {
				detected[faults[res.Index-1].Name] = d
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum, detected
}

// detectedStat returns the sweep's "detected.bench" stat.
func detectedStat(sum *campaign.Summary) campaign.Stat {
	for _, st := range sum.Stats {
		if st.Name == "detected.bench" {
			return st
		}
	}
	return campaign.Stat{}
}

func TestFaultEnumeration(t *testing.T) {
	tb := coverify.DefaultTable()
	faults := faultsim.TableFaults(tb)
	// 16 entries x 4 fault classes.
	if len(faults) != 64 {
		t.Fatalf("faults = %d, want 64", len(faults))
	}
	seen := map[string]bool{}
	for _, f := range faults {
		if seen[f.Name] {
			t.Errorf("duplicate fault %q", f.Name)
		}
		seen[f.Name] = true
		// Every planted fault changes the table relative to the intact
		// one, and planting leaves the intact one alone.
		poisoned := faultsim.Plant(tb, f)
		r0, ok0 := tb.Lookup(f.VC)
		r1, ok1 := poisoned.Lookup(f.VC)
		if ok0 == ok1 && r0 == r1 {
			t.Errorf("fault %q mutated nothing", f.Name)
		}
		if r, _ := coverify.DefaultTable().Lookup(f.VC); !ok0 || r0 != r {
			t.Errorf("planting %q changed the source table", f.Name)
		}
	}
}

func TestFullTrafficDetectsAllFaults(t *testing.T) {
	// Traffic exercising every connection: every planted fault must be
	// caught by the reused network-level test bench.
	faults := faultsim.TableFaults(coverify.DefaultTable())
	sum, detected := sweep(t, 3, workload(0, 1, 2, 3), 2*sim.Millisecond, faults)
	if !sum.Clean() {
		t.Fatalf("campaign not clean:\n%s", sum.Digest())
	}
	if st := detectedStat(sum); st.Count != 64 || st.Sum != 64 {
		var escaped []string
		for name, d := range detected {
			if !d {
				escaped = append(escaped, name)
			}
		}
		t.Fatalf("coverage = %v/%d; escaped: %v", st.Sum, st.Count, escaped)
	}
	// The same verdicts flow into the campaign's cover cross: with full
	// traffic every class×detected bin is hit and no escaped bin is.
	for _, g := range sum.Coverage {
		if g.Name != "faultsim.fault" {
			continue
		}
		for _, p := range g.Points {
			for _, b := range p.Bins {
				switch {
				case strings.HasSuffix(b.Label, "×escaped") && b.Hits != 0:
					t.Errorf("bin %s = %d, want 0", b.Label, b.Hits)
				case strings.HasSuffix(b.Label, "×detected") &&
					!strings.HasPrefix(b.Label, "other") && b.Hits == 0:
					t.Errorf("bin %s unhit", b.Label)
				}
			}
		}
	}
}

func TestPartialTrafficMissesUnexercisedFaults(t *testing.T) {
	// Traffic on port 0 only: faults planted in other ports' connections
	// are invisible — test-bench coverage is a property of the traffic.
	faults := faultsim.TableFaults(coverify.DefaultTable())
	sum, detected := sweep(t, 4, workload(0), 2*sim.Millisecond, faults)
	if !sum.Clean() {
		t.Fatalf("campaign not clean:\n%s", sum.Digest())
	}
	// Exactly the 16 faults on port 0's four connections are detectable.
	if st := detectedStat(sum); st.Count != 64 || st.Sum != 16 {
		t.Fatalf("detected = %v/%d, want 16/64", st.Sum, st.Count)
	}
	if len(detected) != 64 {
		t.Fatalf("%d outcomes reported for 64 faults", len(detected))
	}
	for name, d := range detected {
		if !d && strings.HasPrefix(name, "1.1") { // VPI 1 = port 0's connections
			t.Errorf("fault %q on exercised connection escaped", name)
		}
	}
}

func TestCampaignRejectsBrokenGolden(t *testing.T) {
	// A test bench whose golden run already fails cannot measure fault
	// coverage: overload the tiny FIFOs so cells drop in the golden run.
	bench := func(cfg *coverify.SwitchRigConfig) {
		cfg.Switch = dut.SwitchConfig{InFifoCells: 1, OutFifoCells: 1}
		for p := 0; p < dut.SwitchPorts; p++ {
			cfg.Traffic[p] = coverify.PortTraffic{
				Model: traffic.NewCBR(300e3),
				VCs:   []atm.VC{{VPI: byte(p + 1), VCI: 100}}, // all to output 0
				Cells: 60,
			}
		}
	}
	sum, _ := sweep(t, 5, bench, sim.Millisecond, nil)
	if sum.Clean() || sum.Failed != 1 {
		t.Fatalf("broken golden run accepted: failed=%d", sum.Failed)
	}
	if d := sum.Digest(); !strings.Contains(d, "golden run not clean") {
		t.Errorf("digest does not name the dirty golden run:\n%s", d)
	}
}
