// Architecture exploration at the system level — the other half of the
// paper's §2 workflow: "algorithms and architecture have to be optimized
// for cost, size, complexity and reliability within an interactive and
// iterative design process", at network-simulation speed, before any RTL
// exists. And its premise: "effective traffic modeling for system
// analysis has become crucial for the design process of networking
// hardware".
//
// This study dimensions the switch's output buffer under two traffic
// models with the SAME mean load (50% of line rate): classical
// exponential ON/OFF bursts and heavy-tailed Pareto ON/OFF bursts
// (self-similar traffic). The exponential model says a modest buffer
// nearly eliminates loss; the self-similar model shows the slow decay
// that made long-range-dependent traffic famous — a design sized on the
// wrong traffic model ships with the wrong buffers.
//
// Run: go run ./examples/dimensioning
package main

import (
	"fmt"
	"log"

	"castanet/internal/atm"
	"castanet/internal/netsim"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

func main() {
	depths := []int{2, 4, 8, 16, 32, 64, 128}
	fmt.Println("output buffer dimensioning, 4 bursty sources -> 1 output, 50% mean load")
	fmt.Printf("  %8s %16s %16s\n", "", "exponential", "self-similar")
	fmt.Printf("  %8s %9s %6s %9s %6s\n", "buffer", "loss", "delay", "loss", "delay")
	for _, depth := range depths {
		eo, el, ed := run(depth, false)
		po, pl, pd := run(depth, true)
		fmt.Printf("  %8d %8.2f%% %6s %8.2f%% %6s\n",
			depth,
			100*float64(el)/float64(eo), fmtUs(ed),
			100*float64(pl)/float64(po), fmtUs(pd))
	}
	fmt.Println("\nexponential bursts: loss collapses with modest buffers;")
	fmt.Println("heavy-tailed bursts: loss decays slowly — buffers bought for the")
	fmt.Println("Markovian model are wrong for self-similar load (§2: traffic")
	fmt.Println("modeling is crucial before committing the architecture)")
}

func fmtUs(seconds float64) string {
	return fmt.Sprintf("%.0fus", seconds*1e6)
}

// run executes one sweep point and returns offered cells, lost cells and
// the mean queueing delay in seconds.
func run(depth int, heavyTailed bool) (offered, lost uint64, meanDelay float64) {
	n := netsim.New(77)

	// All connections converge on output 0.
	table := atm.NewTranslator()
	for p := 0; p < 4; p++ {
		table.Add(atm.VC{VPI: byte(p + 1), VCI: 7},
			atm.Route{Port: 0, Out: atm.VC{VPI: 0x40 + byte(p), VCI: 0x700}})
	}
	sw := &refmodel.SwitchRef{Table: table}
	swNode := n.Node("switch", sw)

	// The output port: a finite queue serving at line rate, then a sink
	// that records each cell's end-to-end delay.
	line := &netsim.Queue{Capacity: depth, ServiceTime: atm.CellTime(atm.LinkRateSTM1)}
	lineNode := n.Node("outq", line)
	sink := &netsim.Sink{}
	sinkNode := n.Node("sink", sink)
	n.Connect(swNode, 0, lineNode, 0, netsim.LinkParams{})
	n.Connect(lineNode, 0, sinkNode, 0, netsim.LinkParams{})

	var count uint64
	for p := 0; p < 4; p++ {
		p := p
		// Each source peaks at half line rate in short bursts (mean ~18
		// cells) with a 25% duty cycle:
		// aggregate mean load 50% of the line. Same first-order
		// statistics for both models; only the burst-length distribution
		// differs.
		var gen traffic.Model
		if heavyTailed {
			gen = &traffic.ParetoOnOff{
				PeakInterval: 2 * atm.CellTime(atm.LinkRateSTM1),
				MeanOn:       100 * sim.Microsecond,
				MeanOff:      300 * sim.Microsecond,
				Alpha:        1.5,
			}
		} else {
			gen = &traffic.OnOff{
				PeakInterval: 2 * atm.CellTime(atm.LinkRateSTM1),
				MeanOn:       100 * sim.Microsecond,
				MeanOff:      300 * sim.Microsecond,
			}
		}
		src := &netsim.Source{
			Gen:   gen,
			Limit: 40000,
			Make: func(ctx *netsim.Ctx, i uint64) *netsim.Packet {
				count++
				c := &atm.Cell{Header: atm.Header{VPI: byte(p + 1), VCI: 7}, Seq: uint32(count)}
				return ctx.Net().NewPacket("cell", c, atm.CellBytes*8)
			},
		}
		srcNode := n.Node(fmt.Sprintf("src%d", p), src)
		n.Connect(srcNode, 0, swNode, p, netsim.LinkParams{})
	}

	n.Run(20 * sim.Second)
	delay := &sink.Delay
	if delivered := delay.N(); delivered+line.Dropped != count {
		log.Fatalf("buffer %d: %d cells offered, %d delivered + %d lost", depth, count, delivered, line.Dropped)
	}
	return count, line.Dropped, delay.Mean()
}
