package rtltb

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
	"castanet/internal/sim"
)

const clkPeriod = 50 * sim.Nanosecond

func TestGeneratorEmitsVectors(t *testing.T) {
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, clkPeriod)
	data := h.Signal("data", 8, hdl.U)
	sync := h.Bit("sync", hdl.U)
	vectors := []Vector{
		{GapCycles: 3, Cell: &atm.Cell{Header: atm.Header{VPI: 1, VCI: 10}, Seq: 0}},
		{GapCycles: 0, Cell: &atm.Cell{Header: atm.Header{VPI: 2, VCI: 20}, Seq: 1}},
		{GapCycles: 17, Cell: &atm.Cell{Header: atm.Header{VPI: 3, VCI: 30}, Seq: 2}},
	}
	g := NewGenerator(h, "gen", clk, data, sync, vectors)
	var got []*atm.Cell
	var times []sim.Time
	rd := mapping.NewCellPortReader(h, "rx", clk, data, sync)
	rd.OnCell = func(img [atm.CellBytes]byte, _ atm.Header) {
		c, _ := atm.Unmarshal(img)
		got, times = append(got, c), append(times, h.Now())
	}
	if err := h.Run(400 * clkPeriod); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("received %d cells, want 3", len(got))
	}
	for i, c := range got {
		if c.Seq != uint32(i) || c.VPI != byte(i+1) {
			t.Errorf("cell %d = %v", i, c)
		}
	}
	if g.Emitted != 3 {
		t.Errorf("Emitted = %d", g.Emitted)
	}
	if !g.Done.Bit().IsHigh() {
		t.Error("Done not asserted")
	}
	// Gap timing: cell1 follows cell0 immediately (gap 0): 53 cycles
	// apart; cell2 waits 17 extra cycles.
	if d := times[1] - times[0]; d != 53*clkPeriod {
		t.Errorf("cell1 - cell0 = %v, want 53 cycles", d)
	}
	if d := times[2] - times[1]; d != (53+17)*clkPeriod {
		t.Errorf("cell2 - cell1 = %v, want 70 cycles", d)
	}
}

func TestCheckerCountsAndValidates(t *testing.T) {
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, clkPeriod)
	data := h.Signal("data", 8, hdl.U)
	sync := h.Bit("sync", hdl.U)
	vectors := []Vector{
		{GapCycles: 0, Cell: &atm.Cell{Header: atm.Header{VPI: 1, VCI: 10}}},
		{GapCycles: 5, Cell: &atm.Cell{Header: atm.Header{VPI: 2, VCI: 20}}},
	}
	NewGenerator(h, "gen", clk, data, sync, vectors)
	chk := NewChecker(h, "chk", clk, data, sync)
	if err := h.Run(300 * clkPeriod); err != nil {
		t.Fatal(err)
	}
	if chk.Cells != 2 {
		t.Errorf("checker cells = %d, want 2", chk.Cells)
	}
	if chk.Errors != 0 {
		t.Errorf("checker errors = %d on clean stream", chk.Errors)
	}
	cc, _ := chk.CellCount.Uint()
	if cc != 2 {
		t.Errorf("CellCount signal = %d", cc)
	}
}

func TestCheckerDetectsCorruptHEC(t *testing.T) {
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, clkPeriod)
	data := h.Signal("data", 8, hdl.U)
	sync := h.Bit("sync", hdl.U)
	dd := data.Driver("tb")
	ds := sync.Driver("tb")
	chk := NewChecker(h, "chk", clk, data, sync)

	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 100}}
	img := cell.Marshal()
	img[4] ^= 0x40 // corrupt the HEC octet
	for b := 0; b < atm.CellBytes; b++ {
		b := b
		h.Schedule(sim.Duration(b)*clkPeriod+10*sim.Nanosecond, func() {
			dd.SetUint(uint64(img[b]))
			if b == 0 {
				ds.SetBit(hdl.L1)
			} else {
				ds.SetBit(hdl.L0)
			}
		})
	}
	if err := h.Run(80 * clkPeriod); err != nil {
		t.Fatal(err)
	}
	if chk.Errors != 1 {
		t.Errorf("checker errors = %d, want 1", chk.Errors)
	}
	if chk.Cells != 1 {
		t.Errorf("checker cells = %d, want 1 (errored cells still counted)", chk.Cells)
	}
}

// The whole point of the package: the RTL test bench costs far more HDL
// events per cell than the bare stream it produces.
func TestRTLTestbenchEventOverhead(t *testing.T) {
	makeCells := func(n int) []Vector {
		var v []Vector
		for i := 0; i < n; i++ {
			v = append(v, Vector{GapCycles: 10, Cell: &atm.Cell{Header: atm.Header{VPI: 1, VCI: 10}, Seq: uint32(i)}})
		}
		return v
	}

	// Bare stream: writer only.
	bare := hdl.New()
	clkB := bare.Bit("clk", hdl.U)
	bare.Clock(clkB, clkPeriod)
	dataB := bare.Signal("data", 8, hdl.U)
	syncB := bare.Bit("sync", hdl.U)
	w := mapping.NewCellPortWriter(bare, "tx", clkB, dataB, syncB)
	for _, v := range makeCells(20) {
		w.Enqueue(v.Cell.Marshal(), 0)
	}
	if err := bare.Run(20 * 70 * clkPeriod); err != nil {
		t.Fatal(err)
	}

	// Full RTL TB: generator + checker.
	tb := hdl.New()
	clkT := tb.Bit("clk", hdl.U)
	tb.Clock(clkT, clkPeriod)
	dataT := tb.Signal("data", 8, hdl.U)
	syncT := tb.Bit("sync", hdl.U)
	NewGenerator(tb, "gen", clkT, dataT, syncT, makeCells(20))
	NewChecker(tb, "chk", clkT, dataT, syncT)
	if err := tb.Run(20 * 70 * clkPeriod); err != nil {
		t.Fatal(err)
	}

	if tb.Events() < 2*bare.Events() {
		t.Errorf("RTL TB events (%d) not clearly above bare stream events (%d)",
			tb.Events(), bare.Events())
	}
}
