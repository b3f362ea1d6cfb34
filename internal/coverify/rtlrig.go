package coverify

import (
	"fmt"
	"time"

	"castanet/internal/atm"
	"castanet/internal/dut"
	"castanet/internal/hdl"
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
	HDL      *hdl.Simulator
	DUT      *dut.Switch
	Gens     [dut.SwitchPorts]*rtltb.Generator
	Checkers [dut.SwitchPorts]*rtltb.Checker

	Cfg         SwitchRigConfig
	Offered     uint64
	totalCycles int
}

// NewRTLRig compiles the same per-port traffic description used by the
// co-simulation rig into static RTL stimulus vectors (the "regression
// test bench"), sampling each traffic model with the rig seed.
func NewRTLRig(cfg SwitchRigConfig) *RTLRig {
	if cfg.ClockPeriod == 0 {
		cfg.ClockPeriod = 50 * sim.Nanosecond
	}
	if cfg.Table == nil {
		cfg.Table = DefaultTable()
	}
	if cfg.Switch == (dut.SwitchConfig{}) {
		cfg.Switch = dut.DefaultSwitchConfig()
	}
	r := &RTLRig{Cfg: cfg}
	r.HDL = hdl.New()
	if cfg.Profile != nil {
		cfg.Profile.AttachActivitySource(r.HDL.EnableProfile().Snapshot)
	}
	clk := r.HDL.Bit("clk", hdl.U)
	r.HDL.Clock(clk, cfg.ClockPeriod)
	r.DUT = dut.NewSwitch(r.HDL, clk, cfg.Table, cfg.Switch)
	r.DUT.InstrumentCover(cfg.Cover)
	hdrVPI, hdrVCI, hdrPTI, hdrCLP0, hdrCLP1 := coverHeaderPoints(cfg.Cover)

	rng := sim.NewRNG(cfg.Seed)
	var seq uint32
	for p := 0; p < dut.SwitchPorts; p++ {
		tr := cfg.Traffic[p]
		chk := rtltb.NewChecker(r.HDL, fmt.Sprintf("chk%d", p), clk,
			r.DUT.Out[p].Data, r.DUT.Out[p].Sync)
		r.Checkers[p] = chk
		if tr.Model == nil || tr.Cells == 0 {
			continue
		}
		srcRNG := rng.Split()
		var vectors []rtltb.Vector
		cycles := 0
		for i := uint64(0); i < tr.Cells; i++ {
			gapTime := tr.Model.Next(srcRNG)
			gap := int(gapTime / cfg.ClockPeriod)
			if gap < 0 {
				gap = 0
			}
			// Gaps are measured start-to-start at the network level;
			// subtract the cell's own transmission time, as a hand-built
			// vector file would.
			if gap >= atm.CellBytes {
				gap -= atm.CellBytes
			} else {
				gap = 0
			}
			vc := tr.VCs[int(i)%len(tr.VCs)]
			c := &atm.Cell{Header: atm.Header{VPI: vc.VPI, VCI: vc.VCI}}
			if tr.CLP1 > 0 && srcRNG.Bool(tr.CLP1) {
				c.CLP = 1
			}
			c.Seq = seq
			seq++
			r.Offered++
			coverHeaderHit(hdrVPI, hdrVCI, hdrPTI, hdrCLP0, hdrCLP1, c.Header)
			for b := 4; b < len(c.Payload); b++ {
				c.Payload[b] = byte(uint32(b) * (c.Seq + 1))
			}
			vectors = append(vectors, rtltb.Vector{GapCycles: gap, Cell: c})
			cycles += gap + atm.CellBytes
		}
		if cycles > r.totalCycles {
			r.totalCycles = cycles
		}
		r.Gens[p] = rtltb.NewGenerator(r.HDL, fmt.Sprintf("gen%d", p), clk,
			r.DUT.In[p].Data, r.DUT.In[p].Sync, vectors)
	}
	if !cfg.NoCompiled {
		r.HDL.MustCompile()
	}
	return r
}

// Run executes the regression until all generators finish plus a drain
// margin, entirely inside the event-driven HDL simulator — so with a
// profile attached the whole run is attributed to the HDL phase.
func (r *RTLRig) Run() error {
	horizon := sim.Duration(r.totalCycles+portDrainCycles()) * r.Cfg.ClockPeriod
	start := time.Now()
	err := r.HDL.Run(horizon)
	wall := time.Since(start)
	ph := r.Cfg.Profile.PhaseProf()
	ph.Add(obs.PhaseHDL, wall)
	ph.AddTotal(wall)
	return err
}

func portDrainCycles() int {
	return 16 * atm.CellBytes
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

// ClockCycles returns the simulated byte-clock cycle count.
func (r *RTLRig) ClockCycles() uint64 {
	return uint64(r.HDL.Now() / r.Cfg.ClockPeriod)
}

// Report summarizes the regression run.
func (r *RTLRig) Report() string {
	return fmt.Sprintf("offered=%d checked=%d checkErrs=%d drops=%d hdlEvents=%d cycles=%d",
		r.Offered, r.Checked(), r.CheckErrors(), r.DUT.Drops(), r.HDL.Events(), r.ClockCycles())
}
