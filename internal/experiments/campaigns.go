package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"castanet/internal/atm"
	"castanet/internal/campaign"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/faultsim"
	"castanet/internal/ipc"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// This file defines the verification campaigns castanet -campaign runs:
// named matrices of {experiment × fault-profile} cells for the campaign
// engine. Every RunFunc derives its entire workload from the run's seed,
// elaborates a fresh rig, and returns a deterministic error on a
// verification failure — the contract that makes campaign failure digests
// byte-identical across shard counts and every digest line replayable.

// CampaignConfig tunes the per-run observability of a campaign matrix.
type CampaignConfig struct {
	// TraceEvery samples the causal cell tracing: every Nth cell of a run
	// is traced hop by hop (1 traces all, the default; 0 disables
	// tracing). Campaign runs are small, so full tracing is the default;
	// raise it for full-rate soak campaigns.
	TraceEvery int
}

// DefaultCampaignConfig traces every cell — see CampaignConfig.
var DefaultCampaignConfig = CampaignConfig{TraceEvery: 1}

// handle builds a campaign run's observation handle: the run's coverage
// and profile sinks, plus a fresh cell tracker (every TraceEvery-th cell)
// and flight recorder, so runs share nothing mutable.
func (cfg CampaignConfig) handle(r *campaign.Run) obs.Run {
	h := obs.Run{Cover: r.Cover(), Profile: r.Profile(), Recorder: obs.NewTracer(obs.DefaultRecorderCap)}
	if cfg.TraceEvery > 0 {
		h.Cells = obs.NewCellTracker(cfg.TraceEvery, 0)
	}
	return h
}

// SwitchRigConfig is the per-run switch rig configuration of every
// campaign run and every explored scenario: the run's observation handle
// and its supervision deadline.
func (cfg CampaignConfig) SwitchRigConfig(r *campaign.Run) coverify.SwitchRigConfig {
	return coverify.SwitchRigConfig{Run: cfg.handle(r), Deadline: r.Deadline}
}

// campaignMatrices maps campaign names to their matrix builders.
var campaignMatrices = map[string]func(CampaignConfig) []campaign.Cell{
	"switch":      switchCells,
	"faults":      faultCells,
	"policer":     policerCells,
	"acct":        acctCells,
	"tablefaults": tableFaultCells,
}

// CampaignNames lists the valid -campaign values, sorted.
func CampaignNames() string {
	names := make([]string, 0, len(campaignMatrices))
	for name := range campaignMatrices {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// CampaignMatrix returns the named campaign's matrix cells with the
// default observability configuration.
func CampaignMatrix(name string) ([]campaign.Cell, error) {
	return CampaignMatrixCfg(name, DefaultCampaignConfig)
}

// CampaignMatrixCfg returns the named campaign's matrix cells under an
// explicit observability configuration.
func CampaignMatrixCfg(name string, cfg CampaignConfig) ([]campaign.Cell, error) {
	build, ok := campaignMatrices[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown campaign %q (valid: %s)", name, CampaignNames())
	}
	return build(cfg), nil
}

// campaignTraffic derives a small deterministic switch workload from the
// run's stream: 1..4 driven ports, 12..28 cells each, CBR rates inside
// the uncongested region so a healthy device delivers every cell.
func campaignTraffic(rng *sim.RNG) ([dut.SwitchPorts]coverify.PortTraffic, sim.Time) {
	var tr [dut.SwitchPorts]coverify.PortTraffic
	ports := 1 + rng.Intn(dut.SwitchPorts)
	cells := uint64(12 + rng.Intn(17))
	horizon := sim.Time(0)
	for p := 0; p < ports; p++ {
		rate := 60e3 + 60e3*rng.Float64() // cells/s, well under the 377k line rate
		tr[p] = coverify.PortTraffic{
			Model: traffic.NewCBR(rate),
			VCs:   coverify.PortVCs(p),
			Cells: cells,
		}
		if h := sim.FromSeconds(float64(cells+2) / rate); h > horizon {
			horizon = h
		}
	}
	return tr, horizon + 200*sim.Microsecond
}

// switchCells is the clean co-verification campaign: every run drives a
// fresh switch rig (direct coupling) with seed-derived traffic and demands
// a clean comparison. Failures leave with the rig's triage bundle (cell
// waterfall + flight-recorder dump) attached via campaign.Detailed.
func switchCells(ccfg CampaignConfig) []campaign.Cell {
	return []campaign.Cell{{Experiment: "switch", Run: func(ctx context.Context, r *campaign.Run) error {
		rng := r.RNG()
		tr, horizon := campaignTraffic(rng)
		cfg := ccfg.SwitchRigConfig(r)
		cfg.Seed, cfg.Traffic = rng.Uint64(), tr
		rig := coverify.NewSwitchRig(cfg)
		if err := rig.Run(horizon); err != nil {
			return campaign.Detailed(err, rig.FailureDigest())
		}
		r.Observe("cells", float64(rig.Offered))
		r.Observe("cycles", float64(rig.ClockCycles()))
		if !rig.Cmp.Clean() {
			return campaign.Detailed(
				fmt.Errorf("switch comparison not clean: %s", rig.Cmp.Summary()),
				rig.FailureDigest())
		}
		return nil
	}}}
}

// LinkFaultProfile is one degraded-link column of the faults campaign.
// The fault generator's seed is re-derived per run, so a long campaign
// sweeps fresh loss/corruption patterns every revisit while staying
// replayable.
type LinkFaultProfile struct {
	Name string
	Dir  ipc.DirFaults
	// Abort marks profiles (permanent partitions) whose only correct
	// outcome is a typed coupling abort; all others must be fully masked.
	Abort bool
}

var linkFaultProfiles = []LinkFaultProfile{
	{Name: "drop5-corrupt1", Dir: ipc.DirFaults{Drop: 0.05, Corrupt: 0.01}},
	{Name: "dup10", Dir: ipc.DirFaults{Dup: 0.1}},
	{Name: "delay-reorder", Dir: ipc.DirFaults{Delay: 0.2, DelaySlots: 3}},
	{Name: "partition", Dir: ipc.DirFaults{PartitionAfter: 10}, Abort: true},
}

// LinkFaultProfiles returns the standard degraded-link profile menu in
// campaign column order — shared with the scenario explorer so both
// harnesses inject the same fault classes.
func LinkFaultProfiles() []LinkFaultProfile {
	return append([]LinkFaultProfile(nil), linkFaultProfiles...)
}

// faultCells is the resilience campaign: the switch rig coupled over the
// reliability envelope with per-run link faults. Recoverable profiles must
// end bit-clean; the partition must end in a typed coupling abort. The
// clean column keeps a fault-free reference in the same matrix.
func faultCells(ccfg CampaignConfig) []campaign.Cell {
	cells := []campaign.Cell{{Experiment: "faults", Fault: "clean", Run: faultRun(ccfg, nil)}}
	for i := range linkFaultProfiles {
		p := &linkFaultProfiles[i]
		cells = append(cells, campaign.Cell{Experiment: "faults", Fault: p.Name, Run: faultRun(ccfg, p)})
	}
	return cells
}

func faultRun(ccfg CampaignConfig, profile *LinkFaultProfile) campaign.RunFunc {
	return func(ctx context.Context, r *campaign.Run) error {
		rng := r.RNG()
		tr, horizon := campaignTraffic(rng)
		cfg := ccfg.SwitchRigConfig(r)
		cfg.Seed, cfg.Traffic = rng.Uint64(), tr
		RemoteLink(&cfg, profile, rng)
		rig := coverify.NewSwitchRig(cfg)
		if done, err := RunLink(ctx, rig, horizon, profile); done {
			return err
		}
		r.Observe("cells", float64(rig.Offered))
		// Retransmit counts depend on wall-clock retry timers, not on the
		// run's seed, so they go to telemetry only — putting them in the
		// aggregate would break digest determinism.
		r.ObserveWall("retransmits", float64(rig.RelClient.Stats().Retransmits))
		if !rig.Cmp.Clean() {
			return campaign.Detailed(
				fmt.Errorf("degraded link leaked into the verdict: %s", rig.Cmp.Summary()),
				rig.FailureDigest())
		}
		return nil
	}
}

// RemoteLink couples cfg over the reliability envelope (Remote, 20
// retries backing off from 1 ms to 8 ms) and, for a non-nil profile,
// injects its link faults with a fault seed drawn from rng. A partition
// must abort within the retry budget, not mask, so it faults the send
// direction only and gets a tight 5-retry budget to abort promptly. The
// supervision deadline in cfg arms the coupling watchdogs too, so a hung
// transport trips inside the run as a typed coupling error before the
// supervisor has to reap the whole attempt.
func RemoteLink(cfg *coverify.SwitchRigConfig, profile *LinkFaultProfile, rng *sim.RNG) {
	cfg.Remote = true
	cfg.Reliable = &ipc.ReliableConfig{
		MaxRetries: 20,
		RetryBase:  time.Millisecond,
		RetryCap:   8 * time.Millisecond,
	}
	if profile == nil {
		return
	}
	cfg.Fault = &ipc.FaultConfig{Seed: rng.Uint64(), Send: profile.Dir, Recv: profile.Dir}
	if profile.Abort {
		cfg.Fault.Recv = ipc.DirFaults{}
		cfg.Reliable.MaxRetries = 5
	}
}

// RunLink runs rig to horizon and settles its coupling outcome against
// the link-fault profile (nil: a healthy link). Fail-fast cancellation
// tears the coupling down so a blocked run surfaces a typed error instead
// of outliving the campaign. On a masking link any run error fails the
// run, with the rig's triage bundle (cell waterfall + flight recorder)
// attached and typed coupling errors keeping their class in the digest;
// a partition must abort, so its error is the pass and its completion the
// failure. done reports a settled verdict in err; otherwise the run
// completed as required and the caller judges the comparison.
func RunLink(ctx context.Context, rig *coverify.SwitchRig, horizon sim.Time, profile *LinkFaultProfile) (done bool, err error) {
	release := campaign.OnCancel(ctx, func() { rig.Close() })
	err = rig.Run(horizon)
	release()
	rig.Close()

	expectAbort := profile != nil && profile.Abort
	switch {
	case err != nil && !expectAbort:
		return true, campaign.Detailed(err, rig.FailureDigest())
	case err != nil:
		return true, nil // the partition aborted cleanly, as required
	case expectAbort:
		return true, fmt.Errorf("partitioned link completed instead of aborting")
	}
	return false, nil
}

// tableFaultCells is E8's fault sweep, ports-major: for n = 1..4 driven
// ports, the table-fault sweep of the bench that offers 24 CBR cells at
// 100k cells/s on each of ports 0..n-1 over a 2 ms horizon. That is
// 4 × (1 golden + 64 faults) = 260 cells, so run i of a 260-run campaign
// is cell i and the stat "detected.p<n>" counts row n of E8's table.
func tableFaultCells(ccfg CampaignConfig) []campaign.Cell {
	faults := faultsim.TableFaults(coverify.DefaultTable())
	var cells []campaign.Cell
	for n := 1; n <= dut.SwitchPorts; n++ {
		bench := func(cfg *coverify.SwitchRigConfig) {
			for p := 0; p < n; p++ {
				cfg.Traffic[p] = coverify.PortTraffic{Model: traffic.NewCBR(100e3), VCs: coverify.PortVCs(p), Cells: 24}
			}
		}
		cells = append(cells, TableFaultCells(ccfg, fmt.Sprintf("p%d", n), bench, 2*sim.Millisecond, faults)...)
	}
	return cells
}

// TableFaultCells is one test bench's table-fault sweep: a golden cell,
// then one cell per fault. Every run reruns the bench unchanged on the
// hardware test board (a board rig with 8192 words of test memory) to
// horizon; bench sets the traffic and switch geometry on the run's switch
// rig config, and the rig seed comes from the run's stream. The golden
// run fails unless its comparison is clean: an unhealthy test bench
// measures nothing. A fault run plants its fault in the device's table
// only, so the reference keeps the intact table and the comparator is the
// detector. It bins the outcome into the run's coverage and records it as
// the stat "detected.<label>" (0 or 1) and as the run's value; an escape
// is the measurement, not a failure.
func TableFaultCells(ccfg CampaignConfig, label string, bench func(*coverify.SwitchRigConfig),
	horizon sim.Time, faults []faultsim.Fault) []campaign.Cell {

	run := func(fault *faultsim.Fault) campaign.RunFunc {
		return func(ctx context.Context, r *campaign.Run) error {
			cfg := ccfg.SwitchRigConfig(r)
			cfg.Seed = r.RNG().Uint64()
			bench(&cfg)
			rig, err := coverify.NewBoardRig(cfg, 8192)
			if err != nil {
				return err
			}
			if fault != nil {
				rig.Dev.Table = faultsim.Plant(rig.Cfg.Table, *fault)
			}
			if err := rig.Run(horizon); err != nil {
				return err
			}
			detected := !rig.Cmp.Clean()
			if fault == nil {
				if detected {
					return fmt.Errorf("golden run not clean: %s", rig.Report())
				}
				return nil
			}
			faultsim.Cover(r.Cover(), fault.Name, detected)
			hit := 0.0
			if detected {
				hit = 1
			}
			r.Observe("detected."+label, hit)
			r.SetValue(detected)
			return nil
		}
	}
	cells := []campaign.Cell{{Experiment: "tablefaults", Fault: label + "/golden", Run: run(nil)}}
	for i := range faults {
		cells = append(cells, campaign.Cell{Experiment: "tablefaults", Fault: label + "/" + faults[i].Name, Run: run(&faults[i])})
	}
	return cells
}

// policerCells is the UPC campaign: per run a seed-derived offered load
// between 0.5× and 2× the contract, with the RTL policer and the GCRA
// reference required to agree per cell.
func policerCells(ccfg CampaignConfig) []campaign.Cell {
	return []campaign.Cell{{Experiment: "policer", Run: func(ctx context.Context, r *campaign.Run) error {
		rng := r.RNG()
		const contractRate = 50e3 // cells/s
		ratio := 0.5 + 1.5*rng.Float64()
		cells := uint64(30 + rng.Intn(31))
		vc := atm.VC{VPI: 1, VCI: 10}
		rig := coverify.NewPolicerRig(coverify.PolicerRigConfig{
			Seed: rng.Uint64(), Run: ccfg.handle(r),
			Contracts: []coverify.PolicerContract{
				{VC: vc, PeakInterval: sim.FromSeconds(1 / contractRate), Tau: 2 * sim.Microsecond},
			},
			Sources: []coverify.PolicerSource{
				{Model: traffic.NewPoisson(contractRate * ratio), VC: vc, Cells: cells},
			},
		})
		horizon := sim.FromSeconds(float64(cells)/(contractRate*ratio)) + sim.Millisecond
		if err := rig.Run(horizon); err != nil {
			return err
		}
		r.Observe("load_ratio", ratio)
		r.Observe("cells", float64(rig.Offered))
		if !rig.Cmp.Clean() {
			return fmt.Errorf("policer decisions diverged at load %.3f: %d bad, %d outstanding",
				ratio, len(rig.Cmp.Mismatches()), len(rig.Cmp.Outstanding()))
		}
		return nil
	}}}
}

// acctCells is the accounting campaign: the standardized conformance
// vectors replayed ahead of a short seed-derived stochastic phase, with
// every hardware counter required to match the reference meter.
func acctCells(ccfg CampaignConfig) []campaign.Cell {
	return []campaign.Cell{{Experiment: "acct", Run: func(ctx context.Context, r *campaign.Run) error {
		rng := r.RNG()
		vcs := []atm.VC{{VPI: 1, VCI: 10}, {VPI: 2, VCI: 20}}
		cfg := coverify.AcctRigConfig{
			Seed: rng.Uint64(), Run: ccfg.handle(r),
			VCs:    vcs,
			Tariff: atm.Tariff{CellsPerUnit: 10},
			Sources: []coverify.AcctSource{
				{Model: traffic.NewCBR(80e3 + 40e3*rng.Float64()), VC: 0, Cells: 20 + uint64(rng.Intn(21))},
				{Model: traffic.NewPoisson(60e3 + 30e3*rng.Float64()), VC: 1, Cells: 20 + uint64(rng.Intn(21)), CLP1: rng.Float64() / 2},
			},
		}
		rig := coverify.NewAcctRig(cfg)
		suite := conformanceSuite(vcs[0])
		at := sim.Microsecond
		for i := range suite.Vectors {
			rig.InjectVector(at, suite.Vectors[i].Image)
			at += 60 * sim.Microsecond
		}
		if err := rig.Run(4 * sim.Millisecond); err != nil {
			return err
		}
		r.Observe("cells", float64(rig.Offered))
		if m := rig.Compare(); len(m) > 0 {
			return fmt.Errorf("accounting counters diverged: %d mismatches, first %s/%s",
				len(m), m[0].VC, m[0].Field)
		}
		return nil
	}}}
}
