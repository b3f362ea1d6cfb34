package experiments

import (
	"strings"
	"testing"

	"castanet/internal/obs"
)

// The experiment harnesses are exercised here with small workloads so the
// regular test suite validates their claims' shapes; the full-size runs
// live in the root bench harness.

func TestE1Shape(t *testing.T) {
	r := Factory{}.E1(400, 1)
	if !r.CosimClean {
		t.Error("E1 co-simulation comparison not clean")
	}
	if !r.RTLClean {
		t.Error("E1 RTL regression not clean")
	}
	// The headline claim — co-simulation beats the pure RTL test bench
	// (paper: ~4.3x in clock cycles per second) — asserted on the
	// deterministic work counter behind it rather than on a wall-clock
	// ratio that moves with host load: the co-simulation leg evaluates
	// fewer signal events per cell, because its stimulus and checking live
	// in the network simulator instead of toggling HDL signals every clock.
	co, rtl := r.PerCell(r.CosimSignalEvents), r.PerCell(r.RTLSignalEvents)
	if co == 0 || co >= rtl {
		t.Errorf("signal events per cell: co-sim %.1f, RTL test bench %.1f; want co-sim lower\n%s", co, rtl, r)
	}
	if r.CosimProcessRuns == 0 || r.RTLProcessRuns == 0 {
		t.Errorf("process runs: co-sim %d, RTL %d; want both counted", r.CosimProcessRuns, r.RTLProcessRuns)
	}
	if out := r.String(); !strings.Contains(out, "speedup") || !strings.Contains(out, "events/cell") {
		t.Errorf("report missing speedup line or work counters:\n%s", out)
	}
}

func TestE2Shape(t *testing.T) {
	r := Factory{}.E2(200, 1)
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Causality != 0 {
			t.Errorf("δ=%d sync=%v: causality errors %d", row.DeltaCycles, row.SyncEvery, row.Causality)
		}
		if !row.Clean {
			t.Errorf("δ=%d sync=%v: comparison not clean", row.DeltaCycles, row.SyncEvery)
		}
		if row.MaxLag <= 0 {
			t.Errorf("δ=%d: MaxLag = %v", row.DeltaCycles, row.MaxLag)
		}
	}
	// Finer sync periods mean more messages.
	if r.Rows[0].Messages <= r.Rows[1].Messages {
		t.Errorf("10us sync (%d msgs) should exceed 100us sync (%d msgs)",
			r.Rows[0].Messages, r.Rows[1].Messages)
	}
	// The lock-step ablation explodes the message count by orders of
	// magnitude relative to the coarsest conservative setting.
	lock := r.Rows[len(r.Rows)-1]
	if !lock.Lockstep {
		t.Fatal("last row is not the lockstep ablation")
	}
	if lock.Messages < 20*r.Rows[1].Messages {
		t.Errorf("lockstep messages %d not >> conservative %d", lock.Messages, r.Rows[1].Messages)
	}
}

func TestE3Shape(t *testing.T) {
	r := Factory{}.E3(200, 1)
	// Paper: HDL events an order of magnitude above network events, and
	// hundreds of clock cycles per cell (1:400 at real line idle ratios).
	if r.EventsRatio < 5 {
		t.Errorf("events ratio = %.1f, want >= 5\n%s", r.EventsRatio, r)
	}
	if r.CyclesPerCell < 100 {
		t.Errorf("cycles/cell = %.0f, want >= 100", r.CyclesPerCell)
	}
}

func TestE4Shape(t *testing.T) {
	r := Factory{}.E4(200, 1)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Clean {
			t.Errorf("depth %d: comparison not clean", row.MemDepth)
		}
	}
	// Larger test cycles amortize SCSI overhead: real-time fraction must
	// improve monotonically (weakly) with memory depth.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].RTFraction+1e-9 < r.Rows[i-1].RTFraction {
			t.Errorf("rt fraction fell from %.3f (depth %d) to %.3f (depth %d)",
				r.Rows[i-1].RTFraction, r.Rows[i-1].MemDepth,
				r.Rows[i].RTFraction, r.Rows[i].MemDepth)
		}
	}
	// Fewer test cycles with deeper memory.
	if r.Rows[0].TestCycles <= r.Rows[len(r.Rows)-1].TestCycles {
		t.Errorf("test cycles did not shrink: %d -> %d",
			r.Rows[0].TestCycles, r.Rows[len(r.Rows)-1].TestCycles)
	}
}

func TestE5Shape(t *testing.T) {
	r := Factory{}.E5(1)
	if r.CounterMismatches != 0 {
		t.Errorf("counter mismatches = %d\n%s", r.CounterMismatches, r)
	}
	if r.ConformanceFailed != 0 {
		t.Errorf("unit comparisons failed = %d", r.ConformanceFailed)
	}
	if r.Exceptions == 0 {
		t.Error("no exceptions: unregistered traffic not exercised")
	}
	if len(r.UnitRows) != 4 {
		t.Errorf("unit rows = %d", len(r.UnitRows))
	}
}

// TestE5E7ProcessRuns pins the parking of the last never-parking DUT
// processes: the accounting unit's exception strobe and read port (E5)
// and the policer's violation strobe, whose cycle counter now comes from
// the kernel's clock (E7). Before they parked, E5 at seed 1 and E7 at
// castanet's defaults (500 cells per point, seed 1) ran the recorded
// process counts; the experiments' results are pinned by their shape
// tests and the coverify parity goldens.
func TestE5E7ProcessRuns(t *testing.T) {
	for _, c := range []struct {
		name   string
		run    func(f Factory)
		before uint64
		min    uint64
	}{
		{"E5", func(f Factory) { f.E5(1) }, 3362730, 10},
		{"E7", func(f Factory) { f.E7(500, 1) }, 1879354, 3},
	} {
		reg := obs.NewRegistry()
		c.run(Factory{Obs: &obs.Run{Registry: reg}})
		after := reg.Counter("hdl.sim.process_runs").Value()
		t.Logf("%s: process runs %d -> %d (%.1fx)", c.name, c.before, after, float64(c.before)/float64(after))
		if c.before < c.min*after {
			t.Errorf("%s: process runs %d -> %d, want at least %dx fewer", c.name, c.before, after, c.min)
		}
	}
}

func TestE6Shape(t *testing.T) {
	r := Factory{}.E6(200, 1)
	if !r.Equivalent {
		t.Errorf("engines disagree: event %d cells, cycle %d cells", r.EventCells, r.CycleCells)
	}
	if r.EventCells != r.Cells {
		t.Errorf("event engine delivered %d of %d cells", r.EventCells, r.Cells)
	}
	// Cycle-based must be clearly faster (paper's conclusion).
	if r.Speedup < 2 {
		t.Errorf("cycle-based speedup = %.1fx, want >= 2\n%s", r.Speedup, r)
	}
}

func TestE7Shape(t *testing.T) {
	r := Factory{}.E7(150, 1)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Agree {
			t.Errorf("load %.2f: hardware and reference disagree", row.LoadRatio)
		}
	}
	// Violation fraction rises (weakly) with offered load and is
	// substantial past the contract.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].DUTViolFrac+0.05 < r.Rows[i-1].DUTViolFrac {
			t.Errorf("violation fraction fell: %.3f -> %.3f",
				r.Rows[i-1].DUTViolFrac, r.Rows[i].DUTViolFrac)
		}
	}
	// Poisson gaps are exponential, so some violations occur even below
	// the contract rate; the curve must still rise markedly through it.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.DUTViolFrac < 0.3 {
		t.Errorf("violations at 2x contract = %.3f, want > 0.3", last.DUTViolFrac)
	}
	if last.DUTViolFrac < first.DUTViolFrac+0.2 {
		t.Errorf("curve too flat: %.3f at 0.5x vs %.3f at 2x", first.DUTViolFrac, last.DUTViolFrac)
	}
}

func TestE8Shape(t *testing.T) {
	r := Factory{}.E8(1)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Coverage grows with connection coverage of the traffic and reaches
	// 100% with full-mesh stimuli.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Coverage < r.Rows[i-1].Coverage {
			t.Errorf("coverage fell: %.2f -> %.2f", r.Rows[i-1].Coverage, r.Rows[i].Coverage)
		}
	}
	if last := r.Rows[3]; last.Coverage != 1.0 {
		t.Errorf("full traffic coverage = %.2f, want 1.0", last.Coverage)
	}
	if first := r.Rows[0]; first.Coverage >= 0.5 {
		t.Errorf("1-port coverage = %.2f, want ~0.25", first.Coverage)
	}
}
