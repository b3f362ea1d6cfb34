package coverify_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/campaign"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/experiments"
	"castanet/internal/hdl"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// The parity wall pins what a kernel scheduling optimization must not
// change: the full-design VCD and end-of-run report of every rig, and the
// campaign digests. testdata/parity.txt and testdata/parity_profile.txt
// hold them and are recorded with
//
//	go test ./internal/coverify -run 'TestParity' -record-parity
//
// on the commit whose behaviour they pin, never on the change under test;
// on an unchanged tree the record run rewrites them byte for byte.
// testdata/parity_counters.txt is different: it is a fixed baseline, the
// kernel work counters of a reference workload as measured before the
// idle-dispatch optimization (rising-edge sensitivity and process parking,
// DESIGN.md §19), which no later tree can reproduce. The record flag
// refuses to write it.
var recordParity = flag.Bool("record-parity", false, "rewrite the parity goldens testdata/parity.txt and parity_profile.txt from the current tree")

// parityBaseline is the fixed baseline under testdata that the record flag
// must never rewrite.
const parityBaseline = "parity_counters.txt"

var paritySeeds = []uint64{1, 7, 42}

func parityTraffic(cellsPerPort uint64) [dut.SwitchPorts]coverify.PortTraffic {
	var tr [dut.SwitchPorts]coverify.PortTraffic
	for p := range tr {
		tr[p] = coverify.PortTraffic{Model: traffic.NewPoisson(50e3), VCs: coverify.PortVCs(p), Cells: cellsPerPort}
	}
	return tr
}

// parityRun is one rig's parity run: its artifact line (the VCD's sha256
// and the rig report) and its kernel.
type parityRun struct {
	line    string
	hdl     *hdl.Simulator
	counter func(name string) uint64
}

// rigParity runs one rig with a VCD of every signal in the design
// attached.
func rigParity(t *testing.T, name string, seed uint64) parityRun {
	t.Helper()
	var buf bytes.Buffer
	var h *hdl.Simulator
	var run func() error
	var report func() string
	switch name {
	case "switch":
		rig := coverify.NewSwitchRig(coverify.SwitchRigConfig{Seed: seed, Traffic: parityTraffic(15)})
		h, report = rig.HDL, rig.Report
		run = func() error { return rig.Run(4 * sim.Millisecond) }
	case "rtl":
		rig := coverify.NewRTLRig(coverify.SwitchRigConfig{Seed: seed, Traffic: parityTraffic(10 + seed%5)})
		h, report, run = rig.HDL, rig.Report, rig.Run
	case "policer":
		vc := atm.VC{VPI: 2, VCI: 20}
		rig := coverify.NewPolicerRig(coverify.PolicerRigConfig{
			Seed:      seed,
			Contracts: []coverify.PolicerContract{{VC: vc, PeakInterval: 20 * sim.Microsecond, Tau: sim.Microsecond}},
			Sources:   []coverify.PolicerSource{{Model: traffic.NewPoisson(80e3), VC: vc, Cells: 60}},
		})
		h, report = rig.HDL, rig.Report
		run = func() error { return rig.Run(2 * sim.Millisecond) }
	case "acct":
		rig := coverify.NewAcctRig(coverify.AcctRigConfig{
			Seed:   seed,
			VCs:    []atm.VC{{VPI: 1, VCI: 10}, {VPI: 2, VCI: 20}},
			Tariff: atm.Tariff{CellsPerUnit: 10},
			Sources: []coverify.AcctSource{
				{Model: traffic.NewCBR(50e3), VC: 0, Cells: 40},
				{Model: traffic.NewPoisson(40e3), VC: 1, Cells: 30, CLP1: 0.5},
				{Model: traffic.NewPoisson(20e3), VC: -1, Cells: 8},
			},
		})
		h, report = rig.HDL, rig.Report
		run = func() error { return rig.Run(3 * sim.Millisecond) }
	default:
		t.Fatalf("unknown rig %q", name)
	}
	counter := kernelCounters(h)
	vcd := hdl.NewVCD(&buf, h)
	if err := run(); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if err := vcd.Close(); err != nil {
		t.Fatal(err)
	}
	return parityRun{fmt.Sprintf("rig %s seed=%d vcd=%x report=%s", name, seed, sha256.Sum256(buf.Bytes()), report()), h, counter}
}

// boardParity runs the board rig, whose device is the cycle twin on the
// test board rather than an HDL design, so its line carries the report
// alone. The 1024-frame memory splits every batch into several test
// cycles, so cells cross test-cycle boundaries in both directions.
func boardParity(t *testing.T, seed uint64) string {
	t.Helper()
	rig, err := coverify.NewBoardRig(coverify.SwitchRigConfig{Seed: seed, Traffic: parityTraffic(15)}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Run(4 * sim.Millisecond); err != nil {
		t.Fatalf("board seed %d: %v", seed, err)
	}
	return fmt.Sprintf("rig board seed=%d report=%s", seed, rig.Report())
}

// kernelCounters instruments h into a registry of its own and returns a
// reader of its hdl.sim counters by name, as published (elided_edges,
// folded_edges, absorbed_assignments, ...).
func kernelCounters(h *hdl.Simulator) func(name string) uint64 {
	reg := obs.NewRegistry()
	h.Instrument(reg, "hdl.sim")
	return func(name string) uint64 { return reg.Counter("hdl.sim." + name).Value() }
}

// runCampaign executes a named campaign matrix at seed 1 on two shards.
func runCampaign(t *testing.T, name string, runs int, coverage, profile bool) *campaign.Summary {
	t.Helper()
	matrix, err := experiments.CampaignMatrix(name)
	if err != nil {
		t.Fatal(err)
	}
	if name == "faults" {
		// A partition opens after a count of link operations, and wall-clock
		// retransmits count too, so how much coverage an aborted
		// partitioned run collects is not a function of its seed.
		kept := matrix[:0]
		for _, c := range matrix {
			if c.Fault != "partition" {
				kept = append(kept, c)
			}
		}
		matrix = kept
	}
	sum, err := campaign.Execute(context.Background(), campaign.Spec{
		Name: name, Seed: 1, Runs: runs, Shards: 2, Matrix: matrix,
		Coverage: coverage, Profile: profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func campaignParity(t *testing.T, name string, profile bool) string {
	t.Helper()
	var b strings.Builder
	if err := runCampaign(t, name, 32, true, profile).WriteDigest(&b); err != nil {
		t.Fatal(err)
	}
	what := "coverage"
	if profile {
		what = "coverage+profile"
	}
	return fmt.Sprintf("campaign %s runs=32 %s digest=%x", name, what, sha256.Sum256([]byte(b.String())))
}

func parityFile(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *recordParity {
		if file == parityBaseline {
			t.Fatalf("%s is a fixed baseline, not a golden: -record-parity does not rewrite it", file)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", file, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d drifted:\n got  %s\n want %s", file, i+1, gl[i], wl[i])
		}
	}
}

// TestParityArtifacts asserts every HDL rig's full-design VCD and report,
// the board rig's report, and the switch, faults (without its partition
// column), policer, acct and tablefaults campaign digests (coverage on,
// profile off), byte-identical to the recorded ones.
func TestParityArtifacts(t *testing.T) {
	var b strings.Builder
	for _, rig := range []string{"switch", "rtl", "policer", "acct"} {
		for _, seed := range paritySeeds {
			b.WriteString(rigParity(t, rig, seed).line + "\n")
		}
	}
	for _, seed := range paritySeeds {
		b.WriteString(boardParity(t, seed) + "\n")
	}
	for _, name := range []string{"switch", "faults", "policer", "acct", "tablefaults"} {
		b.WriteString(campaignParity(t, name, false) + "\n")
	}
	parityFile(t, "parity.txt", b.String())
}

// TestParityProfile asserts the deterministic profile artifacts of the
// rigs that were profiled before the rig harness existed byte-identical
// to the recorded ones: the switch and faults campaign digests with
// coverage and profile on, and the E1 hotspot table (300 cells, seed 7,
// both legs) that castanet -experiment e1 -profile prints.
func TestParityProfile(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"switch", "faults"} {
		b.WriteString(campaignParity(t, name, true) + "\n")
	}
	run := obs.NewRun(0)
	run.Profile = obs.NewRunProfile()
	experiments.Factory{Obs: run}.E1(300, 7)
	var table strings.Builder
	obs.WriteActivityText(&table, run.Prof().Activity(), 10)
	b.WriteString(table.String())
	parityFile(t, "parity_profile.txt", b.String())
}

// parityCounters measures the kernel work of the reference workloads: the
// E1 switch rig (400 cells of CBR at 0.8 line load, seed 1), the RTL rig on
// the same traffic, and a 16-run switch campaign. The e1 and rtl
// "executed" counts are the instants the kernel ran rather than elided or
// folded (TimePoints − ElidedEdges − FoldedEdges).
func parityCounters(t *testing.T) map[string]uint64 {
	t.Helper()
	const cells, load = 400, 0.8
	cellTime := sim.Duration(float64(atm.CellBytes*50*sim.Nanosecond) / load)
	var tr [dut.SwitchPorts]coverify.PortTraffic
	for p := range tr {
		tr[p] = coverify.PortTraffic{Model: &traffic.CBR{Interval: cellTime}, VCs: coverify.PortVCs(p), Cells: cells / dut.SwitchPorts}
	}
	rig := coverify.NewSwitchRig(coverify.SwitchRigConfig{Seed: 1, Traffic: tr})
	e1Counter := kernelCounters(rig.HDL)
	if err := rig.Run(sim.Time(cells/dut.SwitchPorts+4) * cellTime); err != nil {
		t.Fatal(err)
	}
	if !rig.Cmp.Clean() {
		t.Fatalf("E1 rig not clean: %s", rig.Cmp.Summary())
	}
	elided, folded := e1Counter("elided_edges"), e1Counter("folded_edges")
	c := map[string]uint64{
		"e1.cells":         rig.Cmp.Matched,
		"e1.process_runs":  rig.HDL.ProcessRuns(),
		"e1.signal_events": rig.HDL.Events(),
		"e1.time_points":   rig.HDL.TimePoints(),
		"e1.elided":        elided,
		"e1.executed":      rig.HDL.TimePoints() - elided - folded,
		"e1.absorbed":      e1Counter("absorbed_assignments"),
	}
	rtl := coverify.NewRTLRig(coverify.SwitchRigConfig{Seed: 1, Traffic: tr})
	rtlCounter := kernelCounters(rtl.HDL)
	if err := rtl.Run(); err != nil {
		t.Fatal(err)
	}
	elided, folded = rtlCounter("elided_edges"), rtlCounter("folded_edges")
	c["rtl.cells"] = rtl.Checked()
	c["rtl.time_points"] = rtl.HDL.TimePoints()
	c["rtl.elided"] = elided
	c["rtl.executed"] = rtl.HDL.TimePoints() - elided - folded
	c["rtl.absorbed"] = rtlCounter("absorbed_assignments")
	sum := runCampaign(t, "switch", 16, false, true)
	for _, st := range sum.Stats {
		if st.Name == "cells" {
			c["campaign16.cells"] = uint64(st.Sum)
		}
	}
	for _, p := range sum.Activity.Processes {
		c["campaign16.process_runs"] += p.Runs
	}
	for _, s := range sum.Activity.Signals {
		c["campaign16.signal_events"] += s.Events
	}
	return c
}

// campaign16Kernel replays the 16 runs of the switch campaign at seed 1
// outside the campaign engine (campaign16Run), which publishes no kernel
// counters, and returns their offered cells, time points and elided
// edges. The caller checks the offered cells against the campaign's own.
func campaign16Kernel(t *testing.T) (cells, points, elided uint64) {
	t.Helper()
	for i := uint64(0); i < 16; i++ {
		cfg, bound := campaign16Run(i)
		rig := coverify.NewSwitchRig(cfg)
		counter := kernelCounters(rig.HDL)
		if err := rig.Run(bound); err != nil {
			t.Fatal(err)
		}
		cells += rig.Offered
		points += rig.HDL.TimePoints()
		elided += counter("elided_edges")
	}
	return cells, points, elided
}

// TestParityCounters is the exact counter gate of the idle-dispatch
// optimization: signal events and time points equal the recorded
// pre-optimization figures, and process runs per cell fall at least 2× on
// the E1 switch rig and at least 20× on the switch campaign. On the same
// campaign, idle-clock elision must execute at least 5× fewer time points
// than the kernel counts. Cycle stepping must execute at least 1.8× fewer
// time points than elision alone leaves (TimePoints − ElidedEdges), so at
// least 1.8× fewer than the kernel counts, on the E1 switch rig and on the
// RTL rig. The packed data plane must absorb at least 140 zero-delay
// assignments per cell on the E1 switch rig and 180 on the RTL rig, read
// from hdl.sim.absorbed_assignments (167.8 and 218.4 when the floor was
// set). It reads the fixed baseline under -record-parity too.
func TestParityCounters(t *testing.T) {
	got := parityCounters(t)
	raw, err := os.ReadFile(filepath.Join("testdata", parityBaseline))
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, _ := strings.Cut(line, " ")
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("parity_counters.txt: %q: %v", line, err)
		}
		base[k] = n
	}
	for _, k := range []string{"e1.cells", "e1.signal_events", "e1.time_points", "campaign16.cells", "campaign16.signal_events"} {
		if got[k] != base[k] {
			t.Errorf("%s = %d, recorded %d", k, got[k], base[k])
		}
	}
	for _, g := range []struct {
		prefix string
		min    float64
	}{{"e1", 2}, {"campaign16", 20}} {
		before := float64(base[g.prefix+".process_runs"]) / float64(base[g.prefix+".cells"])
		after := float64(got[g.prefix+".process_runs"]) / float64(got[g.prefix+".cells"])
		t.Logf("%s: process runs per cell %.1f -> %.1f (%.2fx)", g.prefix, before, after, before/after)
		if before < g.min*after {
			t.Errorf("%s: process runs per cell %.1f -> %.1f, want at least %gx fewer", g.prefix, before, after, g.min)
		}
	}
	for _, rig := range []string{"e1", "rtl"} {
		unelided, executed := got[rig+".time_points"]-got[rig+".elided"], got[rig+".executed"]
		t.Logf("%s: %d time points, %d not elided, %d executed (%.2fx fewer)",
			rig, got[rig+".time_points"], unelided, executed, float64(unelided)/float64(executed))
		if 10*unelided < 18*executed {
			t.Errorf("%s: %d of %d unelided time points executed, want at least 1.8x fewer", rig, executed, unelided)
		}
	}
	for _, g := range []struct {
		rig string
		min float64
	}{{"e1", 140}, {"rtl", 180}} {
		per := float64(got[g.rig+".absorbed"]) / float64(got[g.rig+".cells"])
		t.Logf("%s: %.1f absorbed assignments per cell", g.rig, per)
		if per < g.min {
			t.Errorf("%s: %.1f absorbed assignments per cell, want at least %g", g.rig, per, g.min)
		}
	}
	cells, points, elided := campaign16Kernel(t)
	if cells != got["campaign16.cells"] {
		t.Fatalf("campaign16 replay offered %d cells, the campaign %d", cells, got["campaign16.cells"])
	}
	executed := points - elided
	t.Logf("campaign16: %d time points, %d executed (%.2fx fewer)", points, executed, float64(points)/float64(executed))
	if points < 5*executed {
		t.Errorf("campaign16: %d of %d time points executed, want at least 5x fewer", executed, points)
	}
}

// TestRigsElide keeps the parity goldens from passing vacuously: the
// co-simulation rigs (switch, policer, accounting) elide idle clock edges
// in their parity runs, while the RTL rig, whose test bench drives the DUT
// every clock by design, never does. Every rig folds falling edges.
func TestRigsElide(t *testing.T) {
	for _, rig := range []string{"switch", "rtl", "policer", "acct"} {
		pr := rigParity(t, rig, paritySeeds[0])
		elided, folded := pr.counter("elided_edges"), pr.counter("folded_edges")
		if (elided > 0) != (rig != "rtl") {
			t.Errorf("rig %s elided %d of %d time points", rig, elided, pr.hdl.TimePoints())
		}
		if folded == 0 {
			t.Errorf("rig %s folded none of %d time points", rig, pr.hdl.TimePoints())
		}
	}
}
