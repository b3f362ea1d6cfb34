// Hardware/software co-verification across layers: signaling EFSMs and a
// call admission control agent (the modeled embedded control software of
// the paper's introduction) set up and tear down connections in the very
// RTL switch being verified, while user cells flow through it.
//
// Three callers compete for CAC bandwidth; admitted connections are
// installed into the switch's translation table at run time, their cells
// cross the hardware and are checked against the reference model, and
// cells sent before admission or after release are discarded identically
// by hardware and reference (unknown connection).
//
// Run: go run ./examples/cac_signaling
package main

import (
	"fmt"
	"log"

	"castanet/internal/atm"
	"castanet/internal/coverify"
	"castanet/internal/netsim"
	"castanet/internal/signaling"
	"castanet/internal/sim"
)

func main() {
	table := atm.NewTranslator() // empty: nothing routable until admitted
	rig := coverify.NewSwitchRig(coverify.SwitchRigConfig{Seed: 31, Table: table})

	cac := &signaling.CAC{CapacityBps: 4e6}
	var admissions, releases []string
	cac.OnAdmit = func(vc atm.VC, rate float64) {
		table.Add(vc, atm.Route{Port: int(vc.VCI) % 4, Out: atm.VC{VPI: 0x30, VCI: vc.VCI + 0x200}})
		admissions = append(admissions, fmt.Sprintf("%v @ %.0f kb/s", vc, rate/1e3))
	}
	cac.OnRelease = func(vc atm.VC) {
		table.Remove(vc)
		releases = append(releases, vc.String())
	}
	cacNode := rig.Net.Node("cac", signaling.NewCACMachine(cac))

	callers := []*signaling.Caller{
		{VC: atm.VC{VPI: 1, VCI: 100}, RateBps: 2e6, StartDelay: 1 * sim.Millisecond, HoldTime: 8 * sim.Millisecond},
		{VC: atm.VC{VPI: 1, VCI: 101}, RateBps: 2e6, StartDelay: 2 * sim.Millisecond, HoldTime: 8 * sim.Millisecond},
		{VC: atm.VC{VPI: 1, VCI: 102}, RateBps: 2e6, StartDelay: 3 * sim.Millisecond, HoldTime: 8 * sim.Millisecond},
	}
	for i, cl := range callers {
		node := rig.Net.Node(fmt.Sprintf("caller%d", i), cl.Machine())
		rig.Net.Connect(node, 0, cacNode, i, netsim.LinkParams{Delay: 50 * sim.Microsecond})
		rig.Net.Connect(cacNode, i, node, 0, netsim.LinkParams{Delay: 50 * sim.Microsecond})
	}

	// Each caller streams cells while active (with 1 ms margins from the
	// table edits).
	iface, _ := rig.Net.Lookup("castanet")
	refNode, _ := rig.Net.Lookup("refswitch")
	seq := uint32(0)
	for i, cl := range callers {
		vc := cl.VC
		start := cl.StartDelay + 2*sim.Millisecond
		for k := 0; k < 8; k++ {
			at := start + sim.Duration(k)*500*sim.Microsecond
			s := seq
			seq++
			rig.Net.Sched.At(at, func() {
				c := &atm.Cell{Header: atm.Header{VPI: vc.VPI, VCI: vc.VCI}, Seq: s}
				c.StampSeq()
				refNode.Inject(rig.Net.NewPacket("cell", c.Clone(), atm.CellBytes*8), i%4)
				iface.Inject(rig.Net.NewPacket("cell", c.Clone(), atm.CellBytes*8), i%4)
			})
		}
	}

	if err := rig.Run(25 * sim.Millisecond); err != nil {
		log.Fatal(err)
	}

	fmt.Println("control plane:")
	for _, a := range admissions {
		fmt.Println("  admitted", a)
	}
	for _, r := range releases {
		fmt.Println("  released", r)
	}
	fmt.Printf("  rejected: %d (capacity %0.f kb/s)\n\n", cac.Rejected, cac.CapacityBps/1e3)
	if used := cac.UsedBps(); len(admissions) == len(releases) && used != 0 {
		log.Fatalf("CAC leaked capacity: %.0f b/s still admitted after every release", used)
	}
	for i, cl := range callers {
		fmt.Printf("caller %d (%v): final state %q\n", i, cl.VC, cl.State())
	}
	fmt.Println("\nuser plane through the co-verified switch:")
	fmt.Printf("  cells offered   : %d\n", seq)
	fmt.Printf("  matched vs ref  : %d\n", rig.Cmp.Matched)
	fmt.Printf("  unknown-VC drops: hw=%d ref=%d (un-admitted connection)\n",
		rig.DUT.UnknownVC, rig.Ref.UnknownVC)
	fmt.Printf("  mismatches      : %d\n", len(rig.Cmp.Mismatches()))
	if len(rig.Cmp.Mismatches()) == 0 && len(rig.Cmp.Outstanding()) == 0 {
		fmt.Println("\nRESULT: hardware agrees with the reference under a live control plane")
	} else {
		fmt.Println("\nRESULT: FAILED")
	}
}
