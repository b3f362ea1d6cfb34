package coverify

import (
	"fmt"
	"time"

	"castanet/internal/atm"
	"castanet/internal/dut"
	"castanet/internal/obs"
	"castanet/internal/rtltb"
	"castanet/internal/sim"
)

// RTLRig is the traditional pure-VHDL verification setup for the same
// switch: stimulus generators and response checkers elaborated as RTL
// test-bench hardware inside the event-driven simulator, no network
// simulator involved. It is the baseline of experiment E1 — the paper's
// "pure VHDL-based test benches" whose construction and simulation cost
// the co-verification environment eliminates.
type RTLRig struct {
	Harness
	DUT      *dut.Switch
	Gens     [dut.SwitchPorts]*rtltb.Generator
	Checkers [dut.SwitchPorts]*rtltb.Checker

	Cfg         SwitchRigConfig
	totalCycles int
}

// NewRTLRig compiles the same per-port traffic description used by the
// co-simulation rig into static RTL stimulus vectors (the "regression
// test bench"), sampling each traffic model with the rig seed.
func NewRTLRig(cfg SwitchRigConfig) *RTLRig {
	cfg = switchDefaults(cfg)
	r := &RTLRig{Cfg: cfg}
	r.kernel(cfg)
	r.DUT = dut.NewSwitch(r.HDL, r.clk, cfg.Table, cfg.Switch)
	r.DUT.InstrumentCover(cfg.Cover)
	header := newHeaderCover(cfg.Cover)

	rng := sim.NewRNG(cfg.Seed)
	for p := 0; p < dut.SwitchPorts; p++ {
		tr := cfg.Traffic[p]
		r.Checkers[p] = rtltb.NewChecker(r.HDL, fmt.Sprintf("chk%d", p), r.clk,
			r.DUT.Out[p].Data, r.DUT.Out[p].Sync)
		if tr.Model == nil || tr.Cells == 0 {
			continue
		}
		srcRNG := rng.Split()
		var vectors []rtltb.Vector
		cycles := 0
		for i := uint64(0); i < tr.Cells; i++ {
			// Gaps are measured start-to-start at the network level;
			// subtract the cell's own transmission time, as a hand-built
			// vector file would.
			gap := max(int(tr.Model.Next(srcRNG)/clockPeriod)-atm.CellBytes, 0)
			vc := tr.VCs[int(i)%len(tr.VCs)]
			c := &atm.Cell{Header: atm.Header{VPI: vc.VPI, VCI: vc.VCI}}
			if tr.CLP1 > 0 && srcRNG.Bool(tr.CLP1) {
				c.CLP = 1
			}
			c.Seq = uint32(r.Offered + i)
			header.hit(c.Header)
			fillPayload(c)
			vectors = append(vectors, rtltb.Vector{GapCycles: gap, Cell: c})
			cycles += gap + atm.CellBytes
		}
		r.Offered += tr.Cells
		r.totalCycles = max(r.totalCycles, cycles)
		r.Gens[p] = rtltb.NewGenerator(r.HDL, fmt.Sprintf("gen%d", p), r.clk,
			r.DUT.In[p].Data, r.DUT.In[p].Sync, vectors)
	}
	return r
}

// Run executes the regression until all generators finish plus a drain
// margin, entirely inside the event-driven HDL simulator — so with a
// profile attached the whole run is attributed to the HDL phase.
func (r *RTLRig) Run() error {
	start := time.Now()
	err := r.HDL.Run(sim.Duration(r.totalCycles+16*atm.CellBytes) * clockPeriod)
	wall := time.Since(start)
	ph := r.Cfg.Profile.PhaseProf()
	ph.Add(obs.PhaseHDL, wall)
	ph.AddTotal(wall)
	return err
}

// Checked returns the total cells observed by the output checkers.
func (r *RTLRig) Checked() uint64 {
	var t uint64
	for _, c := range r.Checkers {
		if c != nil {
			t += c.Cells
		}
	}
	return t
}

// CheckErrors returns the total checker protocol errors.
func (r *RTLRig) CheckErrors() uint64 {
	var t uint64
	for _, c := range r.Checkers {
		if c != nil {
			t += c.Errors
		}
	}
	return t
}
