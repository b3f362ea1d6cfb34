package experiments

import (
	"fmt"
	"time"

	"castanet/internal/atm"
	"castanet/internal/conformance"
	"castanet/internal/coverify"
	"castanet/internal/cyclesim"
	"castanet/internal/dut"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
	"castanet/internal/sim"
)

// conformanceSuite builds the standard vector suite for E5.
func conformanceSuite(known atm.VC) *conformance.Suite {
	return conformance.StandardSuite(known)
}

// e6Stimulus is the deterministic workload both engines consume: per
// input port a list of (gapCycles, cell).
type e6Stimulus struct {
	gaps  [dut.SwitchPorts][]int
	cells [dut.SwitchPorts][]*atm.Cell
}

func makeE6Stimulus(cells uint64, seed uint64) *e6Stimulus {
	rng := sim.NewRNG(seed)
	st := &e6Stimulus{}
	per := int(cells) / dut.SwitchPorts
	var seq uint32
	for p := 0; p < dut.SwitchPorts; p++ {
		for i := 0; i < per; i++ {
			vc := coverify.PortVCs(p)[i%dut.SwitchPorts]
			c := &atm.Cell{Header: atm.Header{VPI: vc.VPI, VCI: vc.VCI}, Seq: seq}
			c.StampSeq()
			seq++
			st.cells[p] = append(st.cells[p], c)
			st.gaps[p] = append(st.gaps[p], 10+rng.Intn(20)) // 53+gap cycles spacing
		}
	}
	return st
}

type cellRecord struct {
	port   int
	header atm.Header
}

// E6 runs the identical stimulus through the event-driven RTL switch and
// its cycle-based twin, comparing wall-clock speed and checking that the
// delivered cells are identical.
func (f Factory) E6(cells uint64, seed uint64) E6Result {
	st := makeE6Stimulus(cells, seed)
	table := coverify.DefaultTable()
	period := 50 * sim.Nanosecond
	res := E6Result{Cells: cells}

	// Event-driven engine.
	h := hdl.New()
	h.Instrument(f.Obs.Reg(), "hdl.sim")
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, period)
	sw := dut.NewSwitch(h, clk, table, dut.DefaultSwitchConfig())
	eventGot := make(map[uint32]cellRecord)
	totalCycles := 0
	for p := 0; p < dut.SwitchPorts; p++ {
		p := p
		w := mapping.NewCellPortWriter(h, fmt.Sprintf("tx%d", p), clk, sw.In[p].Data, sw.In[p].Sync)
		cyc := 0
		for i, c := range st.cells[p] {
			c := c
			at := sim.Duration(cyc) * period
			h.Schedule(at, func() { w.Enqueue(c) })
			cyc += 53 + st.gaps[p][i]
		}
		if cyc > totalCycles {
			totalCycles = cyc
		}
		rd := mapping.NewCellPortReader(h, fmt.Sprintf("rx%d", p), clk, sw.Out[p].Data, sw.Out[p].Sync)
		rd.SkipIdle = true
		rd.OnCell = func(c *atm.Cell) { eventGot[c.Seq] = cellRecord{port: p, header: c.Header} }
	}
	if !f.NoCompiled {
		h.MustCompile()
	}
	horizon := sim.Duration(totalCycles+20*53) * period
	start := time.Now()
	if err := h.Run(horizon); err != nil {
		panic(err)
	}
	res.EventWall = time.Since(start)
	res.EventCPS = float64(h.Now()/period) / res.EventWall.Seconds()
	res.EventCells = uint64(len(eventGot))

	// Cycle-based engine, same stimulus timing.
	csw := cyclesim.NewSwitch(table, dut.DefaultSwitchConfig().InFifoCells, dut.DefaultSwitchConfig().OutFifoCells)
	cycleGot := make(map[uint32]cellRecord)
	nCycles := totalCycles + 20*53
	// Precompile per-port byte streams.
	type stream struct {
		data []byte
		sync []bool
	}
	streams := make([]stream, dut.SwitchPorts)
	for p := 0; p < dut.SwitchPorts; p++ {
		s := stream{data: make([]byte, nCycles), sync: make([]bool, nCycles)}
		cyc := 0
		for i, c := range st.cells[p] {
			img := c.Marshal()
			for b := 0; b < atm.CellBytes; b++ {
				if cyc+b < nCycles {
					s.data[cyc+b] = img[b]
					s.sync[cyc+b] = b == 0
				}
			}
			cyc += 53 + st.gaps[p][i]
		}
		streams[p] = s
	}
	type rxs struct {
		buf    [atm.CellBytes]byte
		pos    int
		inCell bool
	}
	var rx [dut.SwitchPorts]rxs
	in := make([]uint64, 2*dut.SwitchPorts)
	start = time.Now()
	for cyc := 0; cyc < nCycles; cyc++ {
		for p := 0; p < dut.SwitchPorts; p++ {
			in[2*p] = uint64(streams[p].data[cyc])
			if streams[p].sync[cyc] {
				in[2*p+1] = 1
			} else {
				in[2*p+1] = 0
			}
		}
		out := csw.Tick(in)
		for p := 0; p < dut.SwitchPorts; p++ {
			r := &rx[p]
			if out[2*p+1]&1 == 1 {
				r.pos = 0
				r.inCell = true
			}
			if !r.inCell {
				continue
			}
			r.buf[r.pos] = byte(out[2*p])
			r.pos++
			if r.pos == atm.CellBytes {
				r.inCell = false
				if c, err := atm.Unmarshal(r.buf); err == nil && !c.IsIdle() && !c.IsUnassigned() {
					cycleGot[c.Seq] = cellRecord{port: p, header: c.Header}
				}
			}
		}
	}
	res.CycleWall = time.Since(start)
	res.CycleCPS = float64(nCycles) / res.CycleWall.Seconds()
	res.CycleCells = uint64(len(cycleGot))

	if res.EventWall > 0 {
		res.Speedup = res.CycleCPS / res.EventCPS
	}

	// Functional equivalence: same cells, same ports, same headers.
	res.Equivalent = len(eventGot) == len(cycleGot)
	for seq, er := range eventGot {
		cr, ok := cycleGot[seq]
		if !ok || cr != er {
			res.Equivalent = false
			break
		}
	}
	return res
}
