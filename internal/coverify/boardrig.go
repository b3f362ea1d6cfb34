package coverify

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/board"
	"castanet/internal/cyclesim"
	"castanet/internal/dut"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
)

// BoardRig is the hardware-in-the-simulation-loop environment (the right
// path of Fig. 1): the same network-level test bench drives the
// "fabricated" switch — a cycle-based device mounted on the test board —
// through the board coupling instead of the HDL simulator, and the same
// comparator checks the outputs against the reference model. Test benches
// are thereby reused unchanged from simulation to functional chip
// verification, the paper's central claim.
type BoardRig struct {
	Harness
	Cfg SwitchRigConfig

	Dev     *cyclesim.Switch
	Board   *board.Board
	Streams *board.StreamHarness
	Ref     *refmodel.SwitchRef
}

// NewBoardRig elaborates the hardware-in-the-loop environment. The board
// runs at the HDL clock rate (capped at the board's 20 MHz) with the given
// memory depth per test cycle.
func NewBoardRig(cfg SwitchRigConfig, memDepth int) (*BoardRig, error) {
	cfg = switchDefaults(cfg)
	r := &BoardRig{Cfg: cfg}
	// The board replaces the kernel half: only the network half is built.
	r.cfg, r.registry = cfg, mapping.NewRegistry()
	header := newHeaderCover(cfg.Cover)
	r.compareTo(cfg.Cover)

	r.Dev = cyclesim.NewSwitch(cfg.Table, cfg.Switch.InFifoCells, cfg.Switch.OutFifoCells)
	r.Board = board.New(r.Dev, min(1/clockPeriod.Seconds(), board.MaxClockHz), memDepth)
	if err := r.Board.Configure(board.SwitchConfig()); err != nil {
		return nil, err
	}
	streams, err := board.NewStreamHarness(r.Board, board.SwitchStreams())
	if err != nil {
		return nil, err
	}
	r.Streams = streams
	for p := 0; p < dut.SwitchPorts; p++ {
		r.registry.Register(KindCellIn(p), mapping.CellCodec{})
		r.registry.Register(KindCellOut(p), mapping.CellCodec{})
	}
	r.network(&board.Coupling{
		Harness: streams,
		KindOf: func(k ipc.Kind) int {
			s := int(k - KindCellIn(0))
			if s < 0 || s >= dut.SwitchPorts {
				return -1
			}
			return s
		},
		RespKind: KindCellOut,
		// Worst-case drain: a full output FIFO serializing at line rate
		// behind the last stimulus byte.
		DrainCycles: (cfg.Switch.OutFifoCells + 8) * atm.CellBytes,
	}, nil)
	r.Ref = &refmodel.SwitchRef{Table: cfg.Table}
	r.Ref.OnForward = func(ctx *netsim.Ctx, outPort int, c *atm.Cell) {
		r.Cmp.Expect(outPort, c)
	}
	refNode := r.Net.Node("refswitch", r.Ref)
	r.attach()
	for p := 0; p < dut.SwitchPorts; p++ {
		tr := cfg.Traffic[p]
		if tr.Model == nil || tr.Cells == 0 {
			continue
		}
		r.feed(p, tr.Model, tr.Cells, func(ctx *netsim.Ctx, i uint64) *atm.Cell {
			c := r.newCell(ctx, tr.VCs[int(i)%len(tr.VCs)], tr.CLP1)
			header.hit(c.Header)
			return c
		}, refNode, p, p)
	}
	return r, nil
}

// Run executes the verification, then flushes remaining hardware output
// through one final sync-triggered test cycle batch.
func (r *BoardRig) Run(until sim.Time) error {
	err := r.drive(until, 0, 0)
	r.publishBoard()
	return err
}

// publishBoard writes the end-of-run board figures into the registry: the
// test-cycle count and the split between hardware activity and SCSI
// software activity that govern the real-time fraction of §3.3.
func (r *BoardRig) publishBoard() {
	reg := r.Cfg.Metrics
	if reg == nil {
		return
	}
	reg.Gauge("board.test_cycles").Set(float64(r.Board.TestCycles))
	reg.Gauge("board.hw_time_ps").Set(float64(r.Board.HWTime))
	reg.Gauge("board.sw_time_ps").Set(float64(r.Board.SWTime))
	reg.Gauge("board.rt_fraction").Set(r.Board.RealTimeFraction())
}

// Report summarizes the hardware-in-the-loop run including board timing.
func (r *BoardRig) Report() string {
	return fmt.Sprintf("offered=%d %s drops=%d | %s", r.Offered, r.Cmp.Summary(), r.Dev.Drops(), r.Board)
}
