// The paper's case study: functional verification of an ATM accounting
// unit.
//
// The same charging algorithm exists twice — as the algorithmic reference
// (the model used to evaluate the charging scheme at the network level)
// and as register-transfer-level hardware. Network-level test benches
// drive both: multi-class stochastic traffic, an MPEG video trace, and
// the standardized conformance vector suite (HEC corruption, idle cells,
// boundary header values). At the end, per-connection counters and
// charging units are compared, and the exception behaviour for
// unregistered connections is checked.
//
// Run: go run ./examples/accounting_unit
package main

import (
	"fmt"
	"log"

	"castanet/internal/atm"
	"castanet/internal/conformance"
	"castanet/internal/coverify"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

func main() {
	vcs := []atm.VC{
		{VPI: 1, VCI: 32}, // voice trunk
		{VPI: 1, VCI: 33}, // data, low priority
		{VPI: 2, VCI: 40}, // video
	}
	cfg := coverify.AcctRigConfig{
		Seed:   2026,
		VCs:    vcs,
		Tariff: atm.Tariff{CellsPerUnit: 50},
		Sources: []coverify.AcctSource{
			{Model: traffic.NewCBR(100e3), VC: 0, Cells: 500},
			{Model: traffic.NewPoisson(60e3), VC: 1, Cells: 300, CLP1: 0.6},
			{Model: traffic.DefaultMPEG(3 * sim.Microsecond), VC: 2, Cells: 600},
			{Model: traffic.NewPoisson(5e3), VC: -1, Cells: 20}, // rogue traffic
		},
	}
	rig := coverify.NewAcctRig(cfg)

	// Conformance phase: replay the standardized vector suite before the
	// stochastic phase.
	suite := conformance.StandardSuite(vcs[0])
	at := sim.Microsecond
	for i := range suite.Vectors {
		rig.InjectVector(at, suite.Vectors[i].Image)
		at += 150 * sim.Microsecond
	}

	if err := rig.Run(60 * sim.Millisecond); err != nil {
		log.Fatal(err)
	}

	fmt.Println("accounting unit case study")
	fmt.Printf("  offered cells (stochastic) : %d\n", rig.Offered)
	fmt.Printf("  conformance vectors        : %d\n", len(suite.Vectors))
	fmt.Printf("  hardware exceptions        : %d\n", rig.Exceptions)
	fmt.Println()
	fmt.Printf("  %-8s %10s %10s %10s %10s %8s\n", "vc", "cells", "clp1", "ref-units", "dut-units", "verdict")
	for _, vc := range vcs {
		rec, _ := rig.Ref.Record(vc)
		refU, dutU := rig.Units(vc)
		verdict := "PASS"
		if refU != dutU {
			verdict = "FAIL"
		}
		fmt.Printf("  %-8s %10d %10d %10d %10d %8s\n", vc, rec.Cells, rec.CLP1Cells, refU, dutU, verdict)
	}
	fmt.Println()
	if ms := rig.Compare(); len(ms) == 0 {
		fmt.Println("RESULT: hardware counters match the charging algorithm exactly")
	} else {
		fmt.Println("RESULT: FAILED")
		fmt.Println("  ", rig.Report())
		for _, m := range ms {
			fmt.Printf("  %+v\n", m)
		}
	}
}
