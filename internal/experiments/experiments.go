// Package experiments contains the reproduction harnesses for every
// quantitative claim and figure of the paper, as indexed in DESIGN.md §4:
//
//	E1  §2 performance paragraph — co-simulation vs pure-RTL throughput
//	E2  Fig. 3 / §3.1            — conservative synchronization behaviour
//	E3  Fig. 4 / §3.2            — time-scale ratio and event counts
//	E4  Fig. 5 / §3.3            — hardware test board cycle scheduling
//	E5  §4 case study            — accounting unit functional verification
//	E6  conclusions              — event-driven vs cycle-based simulation
//
// Each function runs the workload and returns a result whose String forms
// the rows reported in EXPERIMENTS.md. Harnesses are deterministic given
// their seed; wall-clock figures vary with the host, the shapes do not.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"castanet/internal/atm"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// Factory builds experiment harnesses against an explicit observability
// sink; it is the one way to run E1–E8 (castanet builds one from its
// flags), so the package holds no mutable state. Concurrent callers may
// share one sink — obs handles are concurrency-safe. A zero Factory (nil
// Obs) elaborates uninstrumented rigs.
type Factory struct {
	Obs *obs.Run
}

// handle returns the observation handle every rig the factory builds
// carries: all of Obs's sinks, or none for an unobserved factory.
func (f Factory) handle() obs.Run {
	if f.Obs == nil {
		return obs.Run{}
	}
	return *f.Obs
}

// loadTraffic offers CBR load on all four ports at the given fraction of
// the 20 MHz byte-clock line rate (1 cell / 53 cycles).
func loadTraffic(cells uint64, load float64) [dut.SwitchPorts]PortTraffic {
	period := 50 * sim.Nanosecond
	cellTime := sim.Duration(float64(53*period) / load)
	var tr [dut.SwitchPorts]PortTraffic
	per := cells / dut.SwitchPorts
	for p := 0; p < dut.SwitchPorts; p++ {
		tr[p] = PortTraffic{
			Model: &traffic.CBR{Interval: cellTime},
			VCs:   coverify.PortVCs(p),
			Cells: per,
		}
	}
	return tr
}

// PortTraffic re-exports the rig workload type for harness callers.
type PortTraffic = coverify.PortTraffic

// horizonFor sizes the network horizon to the traffic duration.
func horizonFor(cellsPerPort uint64, load float64) sim.Time {
	period := 50 * sim.Nanosecond
	cellTime := sim.Duration(float64(53*period) / load)
	return sim.Time(cellsPerPort+4) * cellTime
}

// E1Result reports the co-simulation vs pure-RTL comparison.
type E1Result struct {
	Cells uint64

	CosimWall    time.Duration
	CosimCycles  uint64
	CosimCPS     float64 // simulated clock cycles per wall second
	CosimCellsPS float64
	CosimClean   bool
	// CosimProcessRuns and CosimSignalEvents are the co-simulation leg's
	// HDL kernel work: deterministic for a seed, unlike the wall figures.
	CosimProcessRuns  uint64
	CosimSignalEvents uint64

	RTLWall         time.Duration
	RTLCycles       uint64
	RTLCPS          float64
	RTLCellsPS      float64
	RTLClean        bool
	RTLProcessRuns  uint64
	RTLSignalEvents uint64

	// Speedup is CosimCPS / RTLCPS; the paper reports ~1300 vs ~300
	// clock cycles per second, a factor of ~4.3.
	Speedup float64
}

// PerCell divides a leg's work counter by the workload's cell count.
func (r E1Result) PerCell(n uint64) float64 {
	if r.Cells == 0 {
		return 0
	}
	return float64(n) / float64(r.Cells)
}

// E1 runs the §2 benchmark workload: cells through the 4-port switch with
// one global control unit, once in the co-verification environment and
// once as a pure-RTL regression bench.
func (f Factory) E1(cells uint64, seed uint64) E1Result {
	const load = 0.8
	r := E1Result{Cells: cells}
	cfg := coverify.SwitchRigConfig{Seed: seed, Traffic: loadTraffic(cells, load), Run: f.handle()}

	co := coverify.NewSwitchRig(cfg)
	start := time.Now()
	if err := co.Run(horizonFor(cells/dut.SwitchPorts, load)); err != nil {
		panic(err)
	}
	r.CosimWall = time.Since(start)
	r.CosimCycles = co.ClockCycles()
	r.CosimClean = co.Cmp.Clean()
	r.CosimCPS = float64(r.CosimCycles) / r.CosimWall.Seconds()
	r.CosimCellsPS = float64(co.Cmp.Matched) / r.CosimWall.Seconds()
	r.CosimProcessRuns, r.CosimSignalEvents = co.HDL.ProcessRuns(), co.HDL.Events()

	rtl := coverify.NewRTLRig(cfg)
	start = time.Now()
	if err := rtl.Run(); err != nil {
		panic(err)
	}
	r.RTLWall = time.Since(start)
	r.RTLCycles = rtl.ClockCycles()
	r.RTLClean = rtl.CheckErrors() == 0 && rtl.Checked() == rtl.Offered
	r.RTLCPS = float64(r.RTLCycles) / r.RTLWall.Seconds()
	r.RTLCellsPS = float64(rtl.Checked()) / r.RTLWall.Seconds()
	r.RTLProcessRuns, r.RTLSignalEvents = rtl.HDL.ProcessRuns(), rtl.HDL.Events()

	if r.RTLCPS > 0 {
		r.Speedup = r.CosimCPS / r.RTLCPS
	}
	return r
}

// String formats the E1 table.
func (r E1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1: %d cells through 4-port switch + global control unit\n", r.Cells)
	fmt.Fprintf(&b, "  %-22s %12s %14s %12s %6s %11s %11s\n", "configuration", "wall", "clk-cycles/s", "cells/s", "clean", "runs/cell", "events/cell")
	fmt.Fprintf(&b, "  %-22s %12v %14.0f %12.0f %6v %11.1f %11.1f\n", "co-simulation", r.CosimWall.Round(time.Millisecond), r.CosimCPS, r.CosimCellsPS, r.CosimClean,
		r.PerCell(r.CosimProcessRuns), r.PerCell(r.CosimSignalEvents))
	fmt.Fprintf(&b, "  %-22s %12v %14.0f %12.0f %6v %11.1f %11.1f\n", "pure RTL test bench", r.RTLWall.Round(time.Millisecond), r.RTLCPS, r.RTLCellsPS, r.RTLClean,
		r.PerCell(r.RTLProcessRuns), r.PerCell(r.RTLSignalEvents))
	fmt.Fprintf(&b, "  speedup (co-sim / RTL): %.2fx   [paper: ~1300 vs ~300 c/s => ~4.3x]\n", r.Speedup)
	return b.String()
}

// E2Row is one sweep point of the synchronization experiment.
type E2Row struct {
	DeltaCycles int
	SyncEvery   sim.Duration
	Lockstep    bool   // ablation: peer updated every hardware clock
	Messages    uint64 // messages delivered to the entity
	Windows     uint64
	MaxLag      sim.Duration
	Causality   uint64
	Clean       bool
	Wall        time.Duration
}

// E2Result is the Fig.-3/§3.1 sweep.
type E2Result struct {
	Cells uint64
	Rows  []E2Row
}

// E2 sweeps the processing-delay window δ and the time-update period of
// the conservative protocol. Causality errors must be zero everywhere
// (the protocol is deadlock- and rollback-free by construction); MaxLag
// shows how far the hardware clock trails the network clock, bounded by
// the update period. The final row is the ablation of DESIGN.md §5: a
// naive lock-step coupling that updates the peer every hardware clock
// cycle — the "incorporating the HW-clock into the OPNET interface model"
// that §3.2 rejects — showing the message blow-up the timing windows
// avoid.
func (f Factory) E2(cells uint64, seed uint64) E2Result {
	const load = 0.6
	res := E2Result{Cells: cells}
	period := 50 * sim.Nanosecond
	run := func(deltaCycles int, syncEvery sim.Duration, lockstep bool) {
		cfg := coverify.SwitchRigConfig{
			Seed:      seed,
			Traffic:   loadTraffic(cells, load),
			Delta:     sim.Duration(deltaCycles) * period,
			SyncEvery: syncEvery,
			Run:       f.handle(),
		}
		rig := coverify.NewSwitchRig(cfg)
		start := time.Now()
		if err := rig.Run(horizonFor(cells/dut.SwitchPorts, load)); err != nil {
			panic(err)
		}
		res.Rows = append(res.Rows, E2Row{
			DeltaCycles: deltaCycles,
			SyncEvery:   syncEvery,
			Lockstep:    lockstep,
			Messages:    rig.Entity.Received,
			Windows:     rig.Entity.Windows,
			MaxLag:      rig.Entity.MaxLag,
			Causality:   rig.Entity.CausalityErrors,
			Clean:       rig.Cmp.Clean(),
			Wall:        time.Since(start),
		})
	}
	for _, deltaCycles := range []int{1, 8, 64, 512} {
		for _, syncEvery := range []sim.Duration{10 * sim.Microsecond, 100 * sim.Microsecond} {
			run(deltaCycles, syncEvery, false)
		}
	}
	// Ablation: lock-step at the hardware clock.
	run(64, period, true)
	return res
}

// String formats the E2 table.
func (r E2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2: conservative synchronization sweep, %d cells\n", r.Cells)
	fmt.Fprintf(&b, "  %6s %10s %9s %9s %10s %10s %6s %10s\n",
		"δ(clk)", "sync", "messages", "windows", "max-lag", "causality", "clean", "wall")
	for _, row := range r.Rows {
		label := fmt.Sprintf("%v", row.SyncEvery)
		if row.Lockstep {
			label = "lockstep"
		}
		fmt.Fprintf(&b, "  %6d %10s %9d %9d %10v %10d %6v %10v\n",
			row.DeltaCycles, label, row.Messages, row.Windows,
			row.MaxLag, row.Causality, row.Clean, row.Wall.Round(time.Millisecond))
	}
	b.WriteString("  [paper: conservative timing windows, deadlock-free, HDL always lags network simulator;\n")
	b.WriteString("   lockstep row = clock-accurate coupling §3.2 rejects]\n")
	return b.String()
}

// E3Result reports the abstraction-interface event accounting.
type E3Result struct {
	Cells       uint64
	NetEvents   uint64
	HDLEvents   uint64
	HDLProcRuns uint64
	ClockCycles uint64
	// EventsRatio = HDLEvents / NetEvents; the paper says the HDL side is
	// "an order of magnitude higher".
	EventsRatio float64
	// CyclesPerNetEvent is the time-scale ratio: HDL clock cycles per
	// network-simulator event; the paper quotes ~1:400 per cell slot.
	CyclesPerNetEvent float64
	CyclesPerCell     float64
	// CyclesPerLineCell is the per-line time-scale ratio: clock cycles
	// between consecutive cells on one port — the paper's ~1:400 figure
	// for a partially loaded line including idle periods.
	CyclesPerLineCell float64
}

// E3 measures the two engines' event counts for the same traffic (Fig. 4
// and §3.2: mapping one abstract cell event onto 53+ bit-level clock
// cycles, plus idle periods).
func (f Factory) E3(cells uint64, seed uint64) E3Result {
	const load = 0.25 // realistic partially-loaded line: idle slots between cells
	cfg := coverify.SwitchRigConfig{Seed: seed, Traffic: loadTraffic(cells, load), Run: f.handle()}
	rig := coverify.NewSwitchRig(cfg)
	if err := rig.Run(horizonFor(cells/dut.SwitchPorts, load)); err != nil {
		panic(err)
	}
	r := E3Result{
		Cells:       cells,
		NetEvents:   rig.Net.Sched.Executed(),
		HDLEvents:   rig.HDL.Events(),
		HDLProcRuns: rig.HDL.ProcessRuns(),
		ClockCycles: rig.ClockCycles(),
	}
	if r.NetEvents > 0 {
		r.EventsRatio = float64(r.HDLEvents) / float64(r.NetEvents)
		r.CyclesPerNetEvent = float64(r.ClockCycles) / float64(r.NetEvents)
	}
	r.CyclesPerCell = float64(r.ClockCycles) / float64(cells)
	r.CyclesPerLineCell = float64(r.ClockCycles) / (float64(cells) / dut.SwitchPorts)
	return r
}

// String formats the E3 report.
func (r E3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E3: time-scale and event accounting, %d cells at 25%% line load\n", r.Cells)
	fmt.Fprintf(&b, "  network-simulator events : %d\n", r.NetEvents)
	fmt.Fprintf(&b, "  HDL signal events        : %d\n", r.HDLEvents)
	fmt.Fprintf(&b, "  HDL process executions   : %d\n", r.HDLProcRuns)
	fmt.Fprintf(&b, "  HDL clock cycles         : %d\n", r.ClockCycles)
	fmt.Fprintf(&b, "  events ratio HDL/net     : %.1fx   [paper: \"an order of magnitude higher\"]\n", r.EventsRatio)
	fmt.Fprintf(&b, "  clock cycles / net event : %.0f\n", r.CyclesPerNetEvent)
	fmt.Fprintf(&b, "  clock cycles / cell      : %.0f (aggregate over 4 lines)\n", r.CyclesPerCell)
	fmt.Fprintf(&b, "  clock cycles / line cell : %.0f   [paper: ~1:400 incl. idle cells]\n", r.CyclesPerLineCell)
	return b.String()
}

// E4Row is one test-cycle-duration sweep point.
type E4Row struct {
	MemDepth   int
	TestCycles uint64
	HWTime     sim.Duration
	SWTime     sim.Duration
	RTFraction float64
	Clean      bool
}

// E4Result is the hardware test board sweep.
type E4Result struct {
	Cells uint64
	Rows  []E4Row
}

// E4 verifies the switch "silicon" on the test board across test-cycle
// durations (stimulus memory depths): longer hardware activity cycles
// amortize the per-cycle SCSI software activity, raising the real-time
// fraction — the trade the §3.3 memory configuration governs.
func (f Factory) E4(cells uint64, seed uint64) E4Result {
	const load = 0.6
	res := E4Result{Cells: cells}
	for _, depth := range []int{128, 512, 2048, 8192, 32768} {
		cfg := coverify.SwitchRigConfig{Seed: seed, Traffic: loadTraffic(cells, load), Run: f.handle()}
		rig, err := coverify.NewBoardRig(cfg, depth)
		if err != nil {
			panic(err)
		}
		if err := rig.Run(horizonFor(cells/dut.SwitchPorts, load)); err != nil {
			panic(err)
		}
		res.Rows = append(res.Rows, E4Row{
			MemDepth:   depth,
			TestCycles: rig.Board.TestCycles,
			HWTime:     rig.Board.HWTime,
			SWTime:     rig.Board.SWTime,
			RTFraction: rig.Board.RealTimeFraction(),
			Clean:      rig.Cmp.Clean(),
		})
	}
	return res
}

// String formats the E4 table.
func (r E4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4: hardware test board, %d cells, 20 MHz board clock\n", r.Cells)
	fmt.Fprintf(&b, "  %9s %11s %12s %12s %8s %6s\n", "mem-depth", "test-cycles", "hw-time", "sw-time", "rt-frac", "clean")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %9d %11d %12v %12v %7.1f%% %6v\n",
			row.MemDepth, row.TestCycles, row.HWTime, row.SWTime, 100*row.RTFraction, row.Clean)
	}
	b.WriteString("  [paper: repeated SW/HW activity cycles; duration bounded by memory configuration]\n")
	return b.String()
}

// E5Result reports the accounting-unit case study.
type E5Result struct {
	Offered           uint64
	CounterMismatches int
	UnitRows          []string
	ConformanceTotal  int
	ConformanceFailed int
	Exceptions        uint64
}

// E5 runs the paper's case study: the accounting unit verified against
// its algorithmic reference under mixed stochastic traffic, an MPEG
// trace, and the standardized conformance vectors.
func (f Factory) E5(seed uint64) E5Result {
	vcs := []atm.VC{{VPI: 1, VCI: 10}, {VPI: 1, VCI: 11}, {VPI: 2, VCI: 20}, {VPI: 3, VCI: 30}}
	cfg := coverify.AcctRigConfig{
		Seed:   seed,
		VCs:    vcs,
		Tariff: atm.Tariff{CellsPerUnit: 25},
		Run:    f.handle(),
		Sources: []coverify.AcctSource{
			{Model: traffic.NewCBR(100e3), VC: 0, Cells: 400},
			{Model: traffic.NewPoisson(80e3), VC: 1, Cells: 300, CLP1: 0.4},
			{Model: &traffic.OnOff{PeakInterval: 10 * sim.Microsecond, MeanOn: 500 * sim.Microsecond, MeanOff: 500 * sim.Microsecond}, VC: 2, Cells: 300},
			{Model: traffic.DefaultMPEG(3 * sim.Microsecond), VC: 3, Cells: 500},
			{Model: traffic.NewPoisson(10e3), VC: -1, Cells: 50},
		},
	}
	rig := coverify.NewAcctRig(cfg)

	// Conformance vectors replayed ahead of the stochastic phase.
	suite := conformanceSuite(vcs[0])
	at := sim.Microsecond
	for i := range suite.Vectors {
		rig.InjectVector(at, suite.Vectors[i].Image)
		at += 100 * sim.Microsecond
	}
	if err := rig.Run(80 * sim.Millisecond); err != nil {
		panic(err)
	}

	res := E5Result{
		Offered:           rig.Offered,
		CounterMismatches: len(rig.Compare()),
		Exceptions:        rig.Exceptions,
		ConformanceTotal:  len(suite.Vectors),
	}
	for _, vc := range vcs {
		ref, dutUnits := rig.Units(vc)
		status := "OK"
		if ref != dutUnits {
			status = "MISMATCH"
			res.ConformanceFailed++ // counted as a failure row
		}
		res.UnitRows = append(res.UnitRows,
			fmt.Sprintf("vc %-6s charging units ref=%-5d dut=%-5d %s", vc, ref, dutUnits, status))
	}
	return res
}

// String formats the E5 report.
func (r E5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E5: accounting unit case study (%d cells offered)\n", r.Offered)
	fmt.Fprintf(&b, "  counter mismatches ref vs RTL : %d  [paper: functional verification passed]\n", r.CounterMismatches)
	fmt.Fprintf(&b, "  conformance vectors replayed  : %d\n", r.ConformanceTotal)
	fmt.Fprintf(&b, "  hardware exception strobes    : %d\n", r.Exceptions)
	for _, row := range r.UnitRows {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	return b.String()
}

// E6Result compares event-driven and cycle-based execution of the same
// switch.
type E6Result struct {
	Cells uint64

	EventWall  time.Duration
	EventCPS   float64
	CycleWall  time.Duration
	CycleCPS   float64
	Speedup    float64
	Equivalent bool
	EventCells uint64
	CycleCells uint64
	// Latency is how many clock cycles later a cell completes in the RTL
	// leg than in the cycle twin, and LatencyConst whether every cell both
	// legs delivered shows that same latency (not printed).
	Latency      int
	LatencyConst bool
	// KernelWork is the RTL leg's executed kernel work per simulated
	// clock cycle — process runs plus signal events — against the twin's
	// one Tick per cycle: the deterministic side of the speedup (not
	// printed).
	KernelWork float64
}

// String formats the E6 report.
func (r E6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E6: event-driven vs cycle-based switch execution, %d cells\n", r.Cells)
	fmt.Fprintf(&b, "  %-14s %12s %16s %10s\n", "engine", "wall", "clk-cycles/s", "cells")
	fmt.Fprintf(&b, "  %-14s %12v %16.0f %10d\n", "event-driven", r.EventWall.Round(time.Millisecond), r.EventCPS, r.EventCells)
	fmt.Fprintf(&b, "  %-14s %12v %16.0f %10d\n", "cycle-based", r.CycleWall.Round(time.Millisecond), r.CycleCPS, r.CycleCells)
	fmt.Fprintf(&b, "  speedup: %.1fx, outputs equivalent: %v\n", r.Speedup, r.Equivalent)
	b.WriteString("  [paper conclusion: event-driven simulators are the bottleneck; cycle-based techniques required]\n")
	return b.String()
}
