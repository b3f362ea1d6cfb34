package board

import (
	"testing"
	"testing/quick"

	"castanet/internal/atm"
	"castanet/internal/cyclesim"
	"castanet/internal/ipc"
	"castanet/internal/sim"
)

func boardTable() *atm.Translator {
	tb := atm.NewTranslator()
	for p := 0; p < 4; p++ {
		for q := 0; q < 4; q++ {
			tb.Add(atm.VC{VPI: byte(p + 1), VCI: uint16(100 + q)},
				atm.Route{Port: q, Out: atm.VC{VPI: byte(0x10 + p), VCI: uint16(0x200 + 16*p + q)}})
		}
	}
	return tb
}

func TestConfigValidation(t *testing.T) {
	dev := cyclesim.NewSwitch(boardTable(), 4, 32)
	good := SwitchConfig()
	if err := good.Validate(dev); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	overlap := SwitchConfig()
	overlap.Inports[2].Pins = overlap.Inports[0].Pins // rx1_data onto rx0_data pins
	if err := overlap.Validate(dev); err == nil {
		t.Error("overlapping pin assignment accepted")
	}

	badWidth := SwitchConfig()
	badWidth.Inports[0].Pins.Bits = 4
	if err := badWidth.Validate(dev); err == nil {
		t.Error("width mismatch accepted")
	}

	badPort := SwitchConfig()
	badPort.Inports[0].Port = "nonexistent"
	if err := badPort.Validate(dev); err == nil {
		t.Error("unknown device port accepted")
	}

	badDir := SwitchConfig()
	badDir.Lanes[0].Dir = Sample // but rx0_data needs a Drive lane
	if err := badDir.Validate(dev); err == nil {
		t.Error("direction mismatch accepted")
	}

	badRange := SwitchConfig()
	badRange.Inports[0].Pins.StartBit = 5 // 8 bits from bit 5 exceeds lane
	if err := badRange.Validate(dev); err == nil {
		t.Error("out-of-lane pin range accepted")
	}
}

func TestFrameInsertExtract(t *testing.T) {
	f := func(lane, start, bits uint8, val uint64) bool {
		pr := PinRange{
			Lane:     int(lane % ByteLanes),
			StartBit: int(start % PinsPerLane),
			Bits:     1 + int(bits)%PinsPerLane,
		}
		if pr.StartBit+pr.Bits > PinsPerLane {
			pr.Bits = PinsPerLane - pr.StartBit
		}
		var fr Frame
		want := val & (1<<uint(pr.Bits) - 1)
		insert(&fr, pr, val)
		return extract(fr, pr) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoardClockLimit(t *testing.T) {
	dev := cyclesim.NewAccounting(4)
	defer func() {
		if recover() == nil {
			t.Error("25 MHz board clock accepted (limit is 20 MHz)")
		}
	}()
	New(dev, 25e6, 1024)
}

func TestAccountingOnBoard(t *testing.T) {
	dev := cyclesim.NewBusAccounting(8)
	slot, _ := dev.Register(atm.VC{VPI: 1, VCI: 11})
	b := New(dev, 20e6, 4096)
	if err := b.Configure(AccountingConfig()); err != nil {
		t.Fatal(err)
	}
	h, err := NewStreamHarness(b, []StreamPair{{
		DataIn: "rx_data", SyncIn: "rx_sync",
		// The accounting unit has no cell output; reuse exception as a
		// 1-bit "stream" is not valid — use the raw board API instead.
	}})
	if err == nil {
		_ = h
		t.Fatal("harness built with unmapped output ports")
	}

	// Drive cells via raw frames.
	var stim []Frame
	pushCell := func(c *atm.Cell) {
		cc := c.Clone()
		cc.StampSeq()
		img := cc.Marshal()
		for i := 0; i < atm.CellBytes; i++ {
			var f Frame
			insert(&f, PinRange{Lane: 0, StartBit: 0, Bits: 8}, uint64(img[i]))
			if i == 0 {
				insert(&f, PinRange{Lane: 1, StartBit: 0, Bits: 1}, 1)
			}
			stim = append(stim, f)
		}
	}
	pushCell(&atm.Cell{Header: atm.Header{VPI: 1, VCI: 11}})
	pushCell(&atm.Cell{Header: atm.Header{VPI: 1, VCI: 11, CLP: 1}})
	pushCell(&atm.Cell{Header: atm.Header{VPI: 9, VCI: 99}}) // unregistered
	resp, err := b.RunTestCycle(stim)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Cells[slot] != 2 || dev.CLP1[slot] != 1 {
		t.Errorf("counters = %d/%d", dev.Cells[slot], dev.CLP1[slot])
	}
	// Exception strobe must be visible in the sampled responses.
	exc := 0
	for _, f := range resp {
		if extract(f, PinRange{Lane: 8, StartBit: 0, Bits: 1}) == 1 {
			exc++
		}
	}
	if exc != 1 {
		t.Errorf("exception cycles sampled = %d, want 1", exc)
	}
}

func TestAutoDurationStopsOnControlPort(t *testing.T) {
	dev := cyclesim.NewBusAccounting(8)
	b := New(dev, 20e6, 4096)
	if err := b.Configure(AccountingConfig()); err != nil {
		t.Fatal(err)
	}
	// One unregistered cell followed by a long idle tail: auto mode must
	// stop at the exception instead of burning the full stimulus.
	var stim []Frame
	c := &atm.Cell{Header: atm.Header{VPI: 9, VCI: 99}}
	img := c.Marshal()
	for i := 0; i < atm.CellBytes; i++ {
		var f Frame
		insert(&f, PinRange{Lane: 0, StartBit: 0, Bits: 8}, uint64(img[i]))
		if i == 0 {
			insert(&f, PinRange{Lane: 1, StartBit: 0, Bits: 1}, 1)
		}
		stim = append(stim, f)
	}
	for i := 0; i < 1000; i++ {
		stim = append(stim, Frame{})
	}
	resp, err := b.RunTestCycleAuto(stim, "exception", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != atm.CellBytes {
		t.Errorf("auto cycle ran %d cycles, want %d (stop at exception)", len(resp), atm.CellBytes)
	}
}

func TestSwitchOnBoardEndToEnd(t *testing.T) {
	dev := cyclesim.NewSwitch(boardTable(), 4, 32)
	b := New(dev, 20e6, 256) // small memory: forces many test cycles
	if err := b.Configure(SwitchConfig()); err != nil {
		t.Fatal(err)
	}
	h, err := NewStreamHarness(b, SwitchStreams())
	if err != nil {
		t.Fatal(err)
	}
	const per = 6
	for p := 0; p < 4; p++ {
		for k := 0; k < per; k++ {
			c := &atm.Cell{
				Header: atm.Header{VPI: byte(p + 1), VCI: uint16(100 + (k % 4))},
				Seq:    uint32(p*100 + k),
			}
			c.StampSeq()
			h.Enqueue(p, c.Marshal())
		}
	}
	if err := h.Execute(8 * atm.CellBytes); err != nil {
		t.Fatal(err)
	}
	total := 0
	for q := 0; q < 4; q++ {
		total += len(h.Out[q])
	}
	if total != 4*per {
		t.Fatalf("delivered %d cells, want %d (%s)", total, 4*per, b)
	}
	// Translation check on one cell.
	found := false
	for _, img := range h.Out[2] {
		cell, _ := atm.Unmarshal(img)
		if cell.Seq == 2 { // port 0, k=2 -> VCI 102 -> out 2
			found = true
			if cell.VPI != 0x10 || cell.VCI != 0x202 {
				t.Errorf("translated = %v", cell.VC())
			}
		}
	}
	if !found {
		t.Error("expected cell not found on output 2")
	}
	if b.TestCycles < 2 {
		t.Errorf("expected chunked test cycles, got %d", b.TestCycles)
	}
	if b.HWCycles == 0 || b.HWTime == 0 || b.SWTime == 0 {
		t.Errorf("activity accounting empty: %s", b)
	}
}

func TestTestCycleDurationBounds(t *testing.T) {
	dev := cyclesim.NewBusAccounting(4)
	b := New(dev, 20e6, 128)
	if err := b.Configure(AccountingConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunTestCycle(nil); err == nil {
		t.Error("empty test cycle accepted")
	}
	if _, err := b.RunTestCycle(make([]Frame, 129)); err == nil {
		t.Error("test cycle beyond memory depth accepted")
	}
	if _, err := b.RunTestCycle(make([]Frame, 128)); err != nil {
		t.Errorf("maximal test cycle rejected: %v", err)
	}
}

func TestBoardCouplingMessages(t *testing.T) {
	dev := cyclesim.NewSwitch(boardTable(), 4, 32)
	b := New(dev, 20e6, 2048)
	if err := b.Configure(SwitchConfig()); err != nil {
		t.Fatal(err)
	}
	h, err := NewStreamHarness(b, SwitchStreams())
	if err != nil {
		t.Fatal(err)
	}
	base := ipc.KindUser
	cpl := &Coupling{
		Harness:  h,
		KindOf:   func(k ipc.Kind) int { return int(k - base) },
		RespKind: func(s int) ipc.Kind { return base + 16 + ipc.Kind(s) },
	}
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 102}, Seq: 31} // -> out 2
	cell.StampSeq()
	img := cell.Marshal()
	if _, err := cpl.Exchange([]ipc.Message{{Kind: base + 0, Time: sim.Microsecond, Data: img[:]}}); err != nil {
		t.Fatal(err)
	}
	resps, err := cpl.Exchange([]ipc.Message{{Kind: ipc.KindSync, Time: 10 * sim.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 {
		t.Fatalf("responses = %d, want 1", len(resps))
	}
	if resps[0].Kind != base+16+2 {
		t.Errorf("response kind = %d, want stream 2", resps[0].Kind)
	}
	var rimg [atm.CellBytes]byte
	copy(rimg[:], resps[0].Data)
	got, err := atm.Unmarshal(rimg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 31 || got.VPI != 0x10 {
		t.Errorf("response cell = %v seq=%d", got.VC(), got.Seq)
	}
}

func TestRealTimeFraction(t *testing.T) {
	dev := cyclesim.NewBusAccounting(4)
	b := New(dev, 20e6, 4096)
	if err := b.Configure(AccountingConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunTestCycle(make([]Frame, 4096)); err != nil {
		t.Fatal(err)
	}
	frac := b.RealTimeFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("real-time fraction = %v, want in (0,1)", frac)
	}
}

// echoDevice mirrors its 8-bit input to its output on the same cycle —
// the simplest device for observing lane timing behaviour.
type echoDevice struct{}

func (echoDevice) Ports() []cyclesim.Port {
	return []cyclesim.Port{
		{Name: "in", Width: 8, Dir: cyclesim.In},
		{Name: "out", Width: 8, Dir: cyclesim.Out},
	}
}
func (echoDevice) Reset()                    {}
func (echoDevice) Tick(in []uint64) []uint64 { return []uint64{in[0]} }

func TestLaneSpeedDividers(t *testing.T) {
	var cfg ConfigDataSet
	cfg.Lanes[0] = LaneConfig{Dir: Drive, Divider: 2}  // stimulus updates every 2nd cycle
	cfg.Lanes[8] = LaneConfig{Dir: Sample, Divider: 4} // response refreshes every 4th cycle
	cfg.Inports = []InportMapping{{Port: "in", Pins: PinRange{Lane: 0, StartBit: 0, Bits: 8}}}
	cfg.Outports = []OutportMapping{{Port: "out", Pins: PinRange{Lane: 8, StartBit: 0, Bits: 8}}}
	b := New(echoDevice{}, 20e6, 1024)
	if err := b.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	// Distinct stimulus byte per cycle: 10, 11, 12, ...
	stim := make([]Frame, 8)
	for i := range stim {
		insert(&stim[i], PinRange{Lane: 0, StartBit: 0, Bits: 8}, uint64(10+i))
	}
	resp, err := b.RunTestCycle(stim)
	if err != nil {
		t.Fatal(err)
	}
	// Device input (divider 2): 10,10,12,12,14,14,16,16 — echoed same
	// cycle; sample lane (divider 4) then holds each captured value for 4
	// cycles: capture at cycles 0 and 4.
	want := []uint64{10, 10, 10, 10, 14, 14, 14, 14}
	for i, f := range resp {
		got := extract(f, PinRange{Lane: 8, StartBit: 0, Bits: 8})
		if got != want[i] {
			t.Errorf("cycle %d: sampled %d, want %d", i, got, want[i])
		}
	}
}
