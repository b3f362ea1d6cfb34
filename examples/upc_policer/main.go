// Usage-parameter-control co-verification — the ATM traffic-management
// application domain the paper names for CASTANET.
//
// An RTL policing unit (per-connection GCRA in hardware, measuring cell
// arrivals with its own cycle counter) is verified against the I.371
// reference algorithm: both observe the identical slot-aligned cell
// stream, and the comparison engine checks that exactly the same cells
// survive, with identical CLP tagging, at every offered load. The sweep
// prints the classic conformance curve.
//
// Run: go run ./examples/upc_policer
package main

import (
	"fmt"
	"log"

	"castanet/internal/atm"
	"castanet/internal/coverify"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

func main() {
	vc := atm.VC{VPI: 1, VCI: 10}
	const contractRate = 50e3 // contracted peak cell rate

	fmt.Println("UPC policing unit vs GCRA reference (tagging mode)")
	fmt.Printf("  %10s %8s %10s %10s %8s %8s\n",
		"load/PCR", "cells", "tagged", "viol-frac", "agree", "verdict")
	for i, ratio := range []float64{0.6, 1.0, 1.5, 2.0} {
		rig := coverify.NewPolicerRig(coverify.PolicerRigConfig{
			Seed: uint64(100 + i),
			Tag:  true,
			Contracts: []coverify.PolicerContract{
				{VC: vc, PeakInterval: sim.FromSeconds(1 / contractRate), Tau: 2 * sim.Microsecond},
			},
			Sources: []coverify.PolicerSource{
				{Model: traffic.NewPoisson(contractRate * ratio), VC: vc, Cells: 300},
			},
		})
		horizon := sim.FromSeconds(300/(contractRate*ratio)) + sim.Millisecond
		if err := rig.Run(horizon); err != nil {
			log.Fatal(err)
		}
		total := float64(rig.DUT.Conforming + rig.DUT.NonConforming)
		violFrac := 0.0
		if total > 0 {
			violFrac = float64(rig.DUT.NonConforming) / total
		}
		verdict := "PASS"
		if !rig.Cmp.Clean() {
			verdict = "FAIL"
		}
		agree := rig.DUT.NonConforming == rig.Ref.NonConforming
		fmt.Printf("  %10.1f %8d %10d %9.1f%% %8v %8s\n",
			ratio, rig.Offered, rig.DUT.Tagged, 100*violFrac, agree, verdict)
		if verdict == "FAIL" {
			fmt.Println("   ", rig.Report())
			for _, m := range rig.Cmp.Mismatches() {
				fmt.Println("   ", m)
			}
		}
	}
	fmt.Println("\nevery tagged/dropped decision of the silicon-bound RTL matches the")
	fmt.Println("network-level reference algorithm, per cell, across the whole sweep")
}
