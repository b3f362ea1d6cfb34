package dut

import (
	"fmt"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
	"castanet/internal/sim"
)

const clkPeriod = 50 * sim.Nanosecond // 20 MHz byte clock

// switchRig wires writers to the switch inputs and readers to its outputs.
type switchRig struct {
	h       *hdl.Simulator
	sw      *Switch
	in      [SwitchPorts]*mapping.CellPortWriter
	out     [SwitchPorts][]*atm.Cell
	readers [SwitchPorts]*mapping.CellPortReader
}

func newSwitchRig(table *atm.Translator, cfg SwitchConfig) *switchRig {
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, clkPeriod)
	rig := &switchRig{h: h, sw: NewSwitch(h, clk, table, cfg)}
	for i := 0; i < SwitchPorts; i++ {
		i := i
		rig.in[i] = mapping.NewCellPortWriter(h, fmt.Sprintf("tb_tx%d", i), clk,
			rig.sw.In[i].Data, rig.sw.In[i].Sync)
		rig.readers[i] = mapping.NewCellPortReader(h, fmt.Sprintf("tb_rx%d", i), clk,
			rig.sw.Out[i].Data, rig.sw.Out[i].Sync)
		rig.readers[i].SkipIdle = true
		rig.readers[i].OnCell = func(c *atm.Cell) { rig.out[i] = append(rig.out[i], c) }
	}
	return rig
}

// send stamps the cell's sequence number into its payload (the test
// benches here match cells by Seq) and queues it on an input port.
func (r *switchRig) send(port int, c *atm.Cell) {
	c.StampSeq()
	r.in[port].Enqueue(c)
}

func (r *switchRig) run(t *testing.T, d sim.Duration) {
	t.Helper()
	if err := r.h.Run(r.h.Now() + d); err != nil {
		t.Fatal(err)
	}
}

func basicTable() *atm.Translator {
	tb := atm.NewTranslator()
	// in port implied by where the cell enters; table keyed by VC only.
	tb.Add(atm.VC{VPI: 1, VCI: 100}, atm.Route{Port: 2, Out: atm.VC{VPI: 10, VCI: 200}})
	tb.Add(atm.VC{VPI: 1, VCI: 101}, atm.Route{Port: 0, Out: atm.VC{VPI: 11, VCI: 201}})
	tb.Add(atm.VC{VPI: 2, VCI: 100}, atm.Route{Port: 3, Out: atm.VC{VPI: 12, VCI: 202}})
	tb.Add(atm.VC{VPI: 3, VCI: 50}, atm.Route{Port: 1, Out: atm.VC{VPI: 13, VCI: 203}})
	return tb
}

func TestSwitchRoutesAndTranslates(t *testing.T) {
	rig := newSwitchRig(basicTable(), DefaultSwitchConfig())
	rig.send(0, &atm.Cell{Header: atm.Header{VPI: 1, VCI: 100, PTI: 1}, Seq: 7})
	rig.run(t, 300*clkPeriod)
	if n := len(rig.out[2]); n != 1 {
		t.Fatalf("port 2 got %d cells, want 1 (outs: %d %d %d %d)",
			n, len(rig.out[0]), len(rig.out[1]), len(rig.out[2]), len(rig.out[3]))
	}
	c := rig.out[2][0]
	if c.VPI != 10 || c.VCI != 200 {
		t.Errorf("translated header = %v, want 10.200", c.VC())
	}
	if c.PTI != 1 {
		t.Errorf("PTI not preserved: %d", c.PTI)
	}
	if c.Seq != 7 {
		t.Errorf("payload seq corrupted: %d", c.Seq)
	}
	if rig.sw.RxCells[0] != 1 || rig.sw.TxCells[2] != 1 {
		t.Errorf("counters: rx=%v tx=%v", rig.sw.RxCells, rig.sw.TxCells)
	}
}

func TestSwitchAllPortsConcurrently(t *testing.T) {
	rig := newSwitchRig(basicTable(), DefaultSwitchConfig())
	// One cell into each input, each to a distinct output.
	rig.send(0, &atm.Cell{Header: atm.Header{VPI: 1, VCI: 100}, Seq: 0}) // -> 2
	rig.send(1, &atm.Cell{Header: atm.Header{VPI: 1, VCI: 101}, Seq: 1}) // -> 0
	rig.send(2, &atm.Cell{Header: atm.Header{VPI: 2, VCI: 100}, Seq: 2}) // -> 3
	rig.send(3, &atm.Cell{Header: atm.Header{VPI: 3, VCI: 50}, Seq: 3})  // -> 1
	rig.run(t, 500*clkPeriod)
	wantAt := map[int]uint32{2: 0, 0: 1, 3: 2, 1: 3}
	for port, seq := range wantAt {
		if len(rig.out[port]) != 1 {
			t.Fatalf("port %d got %d cells", port, len(rig.out[port]))
		}
		if rig.out[port][0].Seq != seq {
			t.Errorf("port %d got seq %d, want %d", port, rig.out[port][0].Seq, seq)
		}
	}
	if rig.sw.Drops() != 0 {
		t.Errorf("drops = %d", rig.sw.Drops())
	}
}

func TestSwitchUnknownVCDiscarded(t *testing.T) {
	rig := newSwitchRig(basicTable(), DefaultSwitchConfig())
	rig.send(0, &atm.Cell{Header: atm.Header{VPI: 9, VCI: 999}, Seq: 0})
	rig.send(0, &atm.Cell{Header: atm.Header{VPI: 1, VCI: 100}, Seq: 1})
	rig.run(t, 500*clkPeriod)
	if rig.sw.UnknownVC != 1 {
		t.Errorf("UnknownVC = %d, want 1", rig.sw.UnknownVC)
	}
	// The known cell must still get through after the discard.
	if len(rig.out[2]) != 1 || rig.out[2][0].Seq != 1 {
		t.Fatalf("known cell lost behind unknown one: %v", rig.out[2])
	}
}

func TestSwitchIdleCellsNotSwitched(t *testing.T) {
	rig := newSwitchRig(basicTable(), DefaultSwitchConfig())
	// A continuous idle-filled line: 18 cell slots in 1000 clocks.
	idle := atm.IdleCell().Marshal()
	for i := 0; i < 8; i++ {
		rig.in[0].EnqueueRaw(idle)
	}
	rig.send(0, &atm.Cell{Header: atm.Header{VPI: 1, VCI: 100}, Seq: 4})
	for i := 0; i < 9; i++ {
		rig.in[0].EnqueueRaw(idle)
	}
	rig.run(t, 1000*clkPeriod)
	total := 0
	for i := 0; i < SwitchPorts; i++ {
		total += len(rig.out[i])
	}
	if total != 1 {
		t.Fatalf("idle cells leaked through the switch: %d outputs", total)
	}
	if rig.sw.RxCells[0] != 1 {
		t.Errorf("RxCells counted idles: %d", rig.sw.RxCells[0])
	}
}

func TestSwitchHECErrorDropped(t *testing.T) {
	// Drive a raw corrupted cell image directly (bypassing the writer's
	// correct HEC): inject via a writer then corrupt the line with a
	// contending driver on one header byte time.
	tb := basicTable()
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, clkPeriod)
	sw := NewSwitch(h, clk, tb, DefaultSwitchConfig())
	w := mapping.NewCellPortWriter(h, "tb_tx0", clk, sw.In[0].Data, sw.In[0].Sync)
	w.Enqueue(&atm.Cell{Header: atm.Header{VPI: 1, VCI: 100}})
	// Force a header byte to zero during the second octet of the cell.
	sab := sw.In[0].Data.Driver("sab")
	sab.Set(hdl.NewLV(8, hdl.Z))
	// The writer emits the first octet on the first rising edge (25ns);
	// octet 2 spans the following cycle.
	h.Schedule(clkPeriod+clkPeriod/2, func() { sab.SetUint(0xFF) })
	h.Schedule(2*clkPeriod+clkPeriod/2, func() { sab.Set(hdl.NewLV(8, hdl.Z)) })
	if err := h.Run(400 * clkPeriod); err != nil {
		t.Fatal(err)
	}
	if sw.HECErrors[0] == 0 {
		t.Error("corrupted header not detected")
	}
	if sw.RxCells[0] != 0 {
		t.Errorf("corrupted cell accepted: rx=%d", sw.RxCells[0])
	}
}

func TestSwitchOutputQueueContention(t *testing.T) {
	// All four inputs target output 2: the shared bus and output FIFO
	// serialize them; every cell must eventually emerge, in bounded time.
	tb := atm.NewTranslator()
	for p := 0; p < SwitchPorts; p++ {
		tb.Add(atm.VC{VPI: byte(p + 1), VCI: 7}, atm.Route{Port: 2, Out: atm.VC{VPI: 20 + byte(p), VCI: 70}})
	}
	rig := newSwitchRig(tb, DefaultSwitchConfig())
	const per = 5
	for p := 0; p < SwitchPorts; p++ {
		for k := 0; k < per; k++ {
			rig.send(p, &atm.Cell{Header: atm.Header{VPI: byte(p + 1), VCI: 7}, Seq: uint32(p*100 + k)})
		}
	}
	// 20 cells of 53 cycles each on the output line, plus switching slack.
	rig.run(t, sim.Duration(20*60+500)*clkPeriod)
	if got := len(rig.out[2]); got != SwitchPorts*per {
		t.Fatalf("output 2 delivered %d cells, want %d (drops=%d)", got, SwitchPorts*per, rig.sw.Drops())
	}
	// Per-source FIFO order must be preserved.
	lastSeq := map[byte]uint32{}
	for _, c := range rig.out[2] {
		src := c.VPI - 20
		if prev, seen := lastSeq[src]; seen && c.Seq <= prev {
			t.Errorf("source %d reordered: %d after %d", src, c.Seq, prev)
		}
		lastSeq[src] = c.Seq
	}
}

func TestSwitchInputFifoOverflow(t *testing.T) {
	// Tiny input FIFO and all traffic to one output at line rate: the
	// input FIFO must overflow and count drops rather than corrupt cells.
	tb := atm.NewTranslator()
	for p := 0; p < SwitchPorts; p++ {
		tb.Add(atm.VC{VPI: byte(p + 1), VCI: 7}, atm.Route{Port: 0, Out: atm.VC{VPI: 20 + byte(p), VCI: 70}})
	}
	cfg := SwitchConfig{InFifoCells: 1, OutFifoCells: 2}
	rig := newSwitchRig(tb, cfg)
	const per = 30
	for p := 0; p < SwitchPorts; p++ {
		for k := 0; k < per; k++ {
			rig.send(p, &atm.Cell{Header: atm.Header{VPI: byte(p + 1), VCI: 7}, Seq: uint32(k)})
		}
	}
	rig.run(t, sim.Duration(per*60*4)*clkPeriod)
	delivered := uint64(len(rig.out[0]))
	dropped := rig.sw.Drops()
	if dropped == 0 {
		t.Error("overloaded switch dropped nothing")
	}
	if delivered+dropped != SwitchPorts*per {
		t.Errorf("delivered %d + dropped %d != %d offered", delivered, dropped, SwitchPorts*per)
	}
	// Every delivered cell must still be intact (HEC valid was checked by
	// the test-bench reader; check translation too).
	for _, c := range rig.out[0] {
		if c.VPI < 20 || c.VPI > 23 || c.VCI != 70 {
			t.Errorf("corrupted survivor: %v", c.VC())
		}
	}
}
