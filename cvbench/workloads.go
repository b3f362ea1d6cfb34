package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"castanet/internal/atm"
	"castanet/internal/campaign"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/experiments"
	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// Workload sizes: the fixed work of one repetition.
const (
	e1Cells       = 16000 // e1_cosim and e1_rtl
	e1Load        = 0.8
	lockstepCells = 3000
	lockstepLoad  = 0.6
	campaignRuns  = 128
	campaignShard = 1
	// matrixBuilds is how many campaign matrix builds matrixBuildTime
	// averages over.
	matrixBuilds = 1000
)

const clockPeriod = 50 * sim.Nanosecond

// workload is one benchmark workload. rep runs one repetition of its fixed
// work on inputs derived from the seed.
type workload struct {
	name string
	// tamper reports whether the workload honours input.tamper.
	tamper bool
	rep    func(in input, traced bool) rep
}

// input is what a repetition is given: the seed its inputs derive from,
// and the self-test switch that corrupts every DUT response.
type input struct {
	seed   uint64
	tamper bool
}

// rep is the outcome of one repetition.
type rep struct {
	probe
	cells  float64 // verified cells
	cycles float64 // simulated HDL byte-clock cycles
	runs   int     // verification runs attempted
	failed int
	// problems explains every failed run, with the seed that reproduces it.
	problems []string
	// counters are deterministic counts; they must repeat exactly across
	// repetitions of one seed. Traced repetitions add activity counts.
	counters map[string]float64
	// layer holds the per-layer metrics this repetition measured.
	layer map[string]float64
}

func newRep() rep {
	return rep{counters: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed verification run.
func (r *rep) fail(seed uint64, format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf("seed %d: %s", seed, fmt.Sprintf(format, args...)))
}

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []workload{
	{name: "e1_cosim", tamper: true, rep: e1Cosim},
	{name: "e1_rtl", rep: e1RTL},
	{name: "lockstep_remote", tamper: true, rep: lockstepRemote},
	{name: "switch_campaign", rep: switchCampaign},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// lineTraffic offers CBR load on all four ports at the given fraction of
// the byte-clock line rate. The seed picks each port's VC rotation order
// and which cells carry CLP=1 (half of them); neither changes the load.
func lineTraffic(seed, cells uint64, load float64) (tr [dut.SwitchPorts]coverify.PortTraffic, horizon sim.Time) {
	rng := sim.NewRNG(seed)
	interval := sim.Duration(float64(atm.CellBytes*clockPeriod) / load)
	per := cells / dut.SwitchPorts
	for p := range tr {
		vcs := coverify.PortVCs(p)
		for i := len(vcs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			vcs[i], vcs[j] = vcs[j], vcs[i]
		}
		tr[p] = coverify.PortTraffic{Model: &traffic.CBR{Interval: interval}, VCs: vcs, CLP1: 0.5, Cells: per}
	}
	return tr, sim.Time(per+4) * interval
}

// tamper corrupts a DUT response before comparison (the self-test).
func tamper(c *atm.Cell) { c.Payload[atm.PayloadBytes-1] ^= 0xFF }

// switchRig runs one repetition of a switch co-verification rig: elaborate,
// run to the horizon, close, and check a clean comparison.
func switchRig(in input, traced bool, cfg coverify.SwitchRigConfig, horizon sim.Time) rep {
	r := newRep()
	cfg.Seed = in.seed
	cfg.Batch = true
	if in.tamper {
		cfg.TamperResponse = tamper
	}
	if traced {
		cfg.Profile = obs.NewRunProfile()
	}
	r.runs = 1

	r.start()
	rig := coverify.NewSwitchRig(cfg)
	r.setupDone()
	runErr := rig.Run(horizon)
	closeErr := rig.Close()
	r.stop()

	switch {
	case runErr != nil:
		r.fail(in.seed, "run: %v", runErr)
	case closeErr != nil:
		r.fail(in.seed, "close: %v", closeErr)
	case !rig.Cmp.Clean():
		r.fail(in.seed, "%s", rig.Cmp.Summary())
	case rig.Entity.CausalityErrors != 0:
		r.fail(in.seed, "%d causality errors", rig.Entity.CausalityErrors)
	case rig.DUTDelivered() != rig.Offered:
		r.fail(in.seed, "offered %d cells, DUT delivered %d", rig.Offered, rig.DUTDelivered())
	}
	r.cells = float64(rig.Cmp.Matched)
	r.cycles = float64(rig.ClockCycles())

	c := r.counters
	c["offered"] = float64(rig.Offered)
	c["matched"] = float64(rig.Cmp.Matched)
	c["clock_cycles"] = r.cycles
	hdlCounters(c, rig.HDL.ProcessRuns(), rig.HDL.Events(), rig.HDL.DeltaCycles(), rig.HDL.TimePoints())
	c["net_events"] = float64(rig.Net.Sched.Executed())
	c["cosim_received"] = float64(rig.Entity.Received)
	c["cosim_windows"] = float64(rig.Entity.Windows)
	c["cosim_causality_errors"] = float64(rig.Entity.CausalityErrors)
	if rig.RelClient != nil {
		st := rig.RelClient.Stats()
		c["ipc_sent"] = float64(st.Sent)
		c["ipc_retransmits"] = float64(st.Retransmits)
	}
	if !traced {
		return r
	}

	cells := r.cells
	l := r.layer
	hdlLayers(l, c, cells)
	l["cosim.messages_per_cell"] = c["cosim_received"] / cells
	l["cosim.windows_per_cell"] = c["cosim_windows"] / cells
	l["cosim.causality_errors"] = c["cosim_causality_errors"]
	if rig.RelClient != nil {
		l["ipc.retransmits_per_kmsg"] = 1000 * c["ipc_retransmits"] / c["ipc_sent"]
	}
	l["netsim.events_per_cell"] = c["net_events"] / cells
	l["coverify.elaborate_ms"] = ms(r.setup)
	activityLayers(l, c, cfg.Profile.Activity(), cells)
	phaseLayers(l, cfg.Profile.PhaseProf().Snapshot(), c["hdl_process_runs"])
	return r
}

// e1Cosim is the paper's section 2 workload: CBR at 0.8 load on all four
// ports over full-mesh VCs, direct coupling, δ = 64 clocks, compiled kernel.
func e1Cosim(in input, traced bool) rep {
	tr, horizon := lineTraffic(in.seed, e1Cells, e1Load)
	return switchRig(in, traced, coverify.SwitchRigConfig{Traffic: tr}, horizon)
}

// lockstepRemote is E2's lock-step ablation: the switch rig coupled over
// Remote and Reliable(pipe) to its EntityServer goroutine, with a time
// update every hardware clock.
func lockstepRemote(in input, traced bool) rep {
	tr, horizon := lineTraffic(in.seed, lockstepCells, lockstepLoad)
	return switchRig(in, traced, coverify.SwitchRigConfig{
		Traffic:   tr,
		SyncEvery: clockPeriod, // a time update every hardware clock
		Remote:    true,
		// The pipe loses nothing, so retries only fire on a stalled peer;
		// a long first wait keeps the retransmit count deterministic.
		Reliable: &ipc.ReliableConfig{RetryBase: time.Second, RetryCap: time.Second},
	}, horizon)
}

// e1RTL offers e1_cosim's traffic to a pure-RTL test bench (the other side
// of the paper's ratio): stimulus vectors and checkers run inside the HDL
// simulator, with no network simulator or coupling.
func e1RTL(in input, traced bool) rep {
	r := newRep()
	tr, _ := lineTraffic(in.seed, e1Cells, e1Load)
	cfg := coverify.SwitchRigConfig{Seed: in.seed, Traffic: tr}
	r.runs = 1

	r.start()
	rig := coverify.NewRTLRig(cfg)
	r.setupDone()
	var prof *hdl.ActivityProfile
	if traced {
		// The RTL rig has no profile hook; enable the kernel's activity
		// profiler directly, after the timed set-up.
		prof = rig.HDL.EnableProfile()
	}
	runErr := rig.Run()
	r.stop()

	switch {
	case runErr != nil:
		r.fail(in.seed, "run: %v", runErr)
	case rig.CheckErrors() != 0:
		r.fail(in.seed, "%d checker errors", rig.CheckErrors())
	case rig.Checked() != rig.Offered:
		r.fail(in.seed, "offered %d cells, checked %d", rig.Offered, rig.Checked())
	}
	r.cells = float64(rig.Checked())
	r.cycles = float64(rig.ClockCycles())

	c := r.counters
	c["offered"] = float64(rig.Offered)
	c["checked"] = r.cells
	c["clock_cycles"] = r.cycles
	hdlCounters(c, rig.HDL.ProcessRuns(), rig.HDL.Events(), rig.HDL.DeltaCycles(), rig.HDL.TimePoints())
	if !traced {
		return r
	}
	l := r.layer
	hdlLayers(l, c, r.cells)
	// The whole run is HDL kernel time: there is no coupling to share it.
	l["hdl.ns_per_process_run"] = float64((r.wall - r.setup).Nanoseconds()) / c["hdl_process_runs"]
	l["hdl.busy_frac"] = 1
	l["coverify.elaborate_ms"] = ms(r.setup)
	activityLayers(l, c, prof.Snapshot(), r.cells)
	return r
}

// switchCampaign executes the switch campaign matrix: many small runs,
// each elaborating a fresh rig, with seed-derived traffic. It runs on one
// shard: on a 2-core host two busy shards read 2-3x noisier from run to
// run than one, because every repetition then waits on the slower core.
func switchCampaign(in input, traced bool) rep {
	r := newRep()
	var runMs []float64
	spec := campaign.Spec{
		Name:   "switch",
		Seed:   in.seed,
		Runs:   campaignRuns,
		Shards: campaignShard,
		OnResult: func(res campaign.Result) {
			runMs = append(runMs, ms(res.Wall))
			if res.Err != nil {
				r.fail(res.Seed, "run %d: %v", res.Index, res.Err)
			}
		},
	}
	var prof *obs.RunProfile
	if traced {
		prof = obs.NewRunProfile()
		spec.Profile = true
		spec.Obs = &obs.Run{Profile: prof}
	}
	r.runs = campaignRuns

	r.start()
	matrix, err := experiments.CampaignMatrix("switch")
	r.setupDone()
	var sum *campaign.Summary
	if err == nil {
		spec.Matrix = matrix
		sum, err = campaign.Execute(context.Background(), spec)
	}
	r.stop()
	if err != nil {
		r.fail(in.seed, "campaign: %v", err)
		return r
	}
	// One matrix build takes about 100 ns, too short to time steadily
	// alone; report the mean of many builds instead.
	r.setup = matrixBuildTime()
	if !sum.Clean() && r.failed == 0 {
		r.fail(in.seed, "campaign not clean: completed=%d failed=%d skipped=%d", sum.Completed, sum.Failed, sum.Skipped)
	}
	for _, st := range sum.Stats {
		switch st.Name {
		case "cells":
			r.cells = st.Sum
		case "cycles":
			r.cycles = st.Sum
		}
	}
	c := r.counters
	c["completed"] = float64(sum.Completed)
	c["cells"] = r.cells
	c["clock_cycles"] = r.cycles
	if !traced {
		return r
	}

	l := r.layer
	act := sum.Activity
	events, _, runs, _ := act.Totals()
	c["hdl_process_runs"] = float64(runs)
	c["hdl_signal_events"] = float64(events)
	l["hdl.process_runs_per_cell"] = float64(runs) / r.cells
	l["hdl.signal_events_per_cell"] = float64(events) / r.cells
	l["hdl.runs_per_signal_event"] = float64(runs) / float64(events)
	activityLayers(l, c, act, r.cells)
	phaseLayers(l, prof.PhaseProf().Snapshot(), float64(runs))

	var busyMs float64
	for _, v := range runMs {
		busyMs += v
	}
	l["campaign.run_ms_p50"] = quantile(runMs, 0.50)
	l["campaign.run_ms_p95"] = quantile(runMs, 0.95)
	l["campaign.shard_busy_frac"] = busyMs / (campaignShard * ms(sum.Wall))
	l["coverify.elaborate_ms"] = campaignElaborateMs(in.seed)
	return r
}

// matrixBuildTime returns the mean host time of one switch campaign matrix
// build.
func matrixBuildTime() time.Duration {
	t := time.Now()
	for i := 0; i < matrixBuilds; i++ {
		if _, err := experiments.CampaignMatrix("switch"); err != nil {
			panic(err) // the same build just succeeded in the repetition
		}
	}
	return time.Since(t) / matrixBuilds
}

// campaignElaborateMs times the elaboration every switch campaign run pays
// (the switch, its coupling and the compiled kernel; a run's few traffic
// sources add little) as the median of a few builds.
func campaignElaborateMs(seed uint64) float64 {
	var d []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		coverify.NewSwitchRig(coverify.SwitchRigConfig{Seed: seed, Batch: true})
		d = append(d, ms(time.Since(t)))
	}
	return median(d)
}

func hdlCounters(c map[string]float64, runs, events, deltas, points uint64) {
	c["hdl_process_runs"] = float64(runs)
	c["hdl_signal_events"] = float64(events)
	c["hdl_delta_cycles"] = float64(deltas)
	c["hdl_time_points"] = float64(points)
}

func hdlLayers(l, c map[string]float64, cells float64) {
	l["hdl.process_runs_per_cell"] = c["hdl_process_runs"] / cells
	l["hdl.signal_events_per_cell"] = c["hdl_signal_events"] / cells
	l["hdl.runs_per_signal_event"] = c["hdl_process_runs"] / c["hdl_signal_events"]
	l["hdl.delta_cycles_per_cell"] = c["hdl_delta_cycles"] / cells
	l["hdl.time_points_per_cell"] = c["hdl_time_points"] / cells
}

// activityLayers splits the kernel's per-process run counts by layer,
// using the process names the rigs give them: castanet_tx*/castanet_rx*
// are the port conditioning of the coupling, gen*/chk* the RTL test bench,
// everything else the device under test. The split counts are recorded as
// counters too, so traced repetitions check them for exact repetition.
func activityLayers(l, c map[string]float64, a obs.ActivitySnap, cells float64) {
	var port, tb, dutRuns uint64
	for _, p := range a.Processes {
		switch {
		case strings.HasPrefix(p.Name, "castanet_tx"), strings.HasPrefix(p.Name, "castanet_rx"):
			port += p.Runs
		case strings.HasPrefix(p.Name, "gen"), strings.HasPrefix(p.Name, "chk"):
			tb += p.Runs
		default:
			dutRuns += p.Runs
		}
	}
	c["activity_port_runs"] = float64(port)
	c["activity_tb_runs"] = float64(tb)
	c["activity_dut_runs"] = float64(dutRuns)
	if port > 0 {
		l["mapping.port_runs_per_cell"] = float64(port) / cells
	}
	if tb > 0 {
		l["rtltb.process_runs_per_cell"] = float64(tb) / cells
	}
	l["dut.process_runs_per_cell"] = float64(dutRuns) / cells
}

// phaseLayers derives the wall-time layer shares from the program's phase
// profile: HDL execution, codec, transport, and the remainder nothing
// attributes (the profile calls it "sched").
func phaseLayers(l map[string]float64, phases []obs.PhaseSnap, processRuns float64) {
	byName := map[string]obs.PhaseSnap{}
	for _, p := range phases {
		byName[p.Name] = p
	}
	total := float64(byName["total"].Ns)
	if total <= 0 {
		return
	}
	hdl, enc, dec, tr := byName["hdl"], byName["encode"], byName["decode"], byName["transport"]
	l["hdl.ns_per_process_run"] = float64(hdl.Ns) / processRuns
	l["hdl.busy_frac"] = float64(hdl.Ns) / total
	if n := enc.Windows + dec.Windows; n > 0 {
		l["mapping.codec_ns_per_msg"] = float64(enc.Ns+dec.Ns) / float64(n)
	}
	if tr.Windows > 0 {
		l["ipc.transport_ns_per_unit"] = float64(tr.Ns) / float64(tr.Windows)
		l["ipc.transport_frac"] = float64(tr.Ns) / total
	}
	l["unattributed_frac"] = float64(byName["sched"].Ns) / total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
