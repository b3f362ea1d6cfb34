package board

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/cyclesim"
)

func TestBidirectionalBusReadout(t *testing.T) {
	dev := cyclesim.NewBusAccounting(8)
	vc := atm.VC{VPI: 1, VCI: 11}
	slot, _ := dev.Register(vc)
	b := New(dev, 20e6, 8192)
	if err := b.Configure(AccountingConfig()); err != nil {
		t.Fatal(err)
	}

	// Phase 1: meter 7 cells through the cell path.
	var stim []Frame
	for k := 0; k < 7; k++ {
		c := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 11}, Seq: uint32(k)}
		c.StampSeq()
		img := c.Marshal()
		for i := 0; i < atm.CellBytes; i++ {
			var f Frame
			insert(&f, PinRange{Lane: 0, StartBit: 0, Bits: 8}, uint64(img[i]))
			if i == 0 {
				insert(&f, PinRange{Lane: 1, StartBit: 0, Bits: 1}, 1)
			}
			stim = append(stim, f)
		}
	}
	if _, err := b.RunTestCycle(stim); err != nil {
		t.Fatal(err)
	}
	if dev.Cells[slot] != 7 {
		t.Fatalf("metered %d cells", dev.Cells[slot])
	}

	// Phase 2: read the 32-bit counter over the bidirectional bus, byte
	// by byte: req+rw for one cycle, then an idle cycle while the device
	// drives the shared lane.
	var busStim []Frame
	for byteSel := 0; byteSel < 4; byteSel++ {
		var fReq Frame
		insert(&fReq, PinRange{Lane: 2, StartBit: 0, Bits: 8}, uint64(slot<<2|byteSel))
		insert(&fReq, PinRange{Lane: 3, StartBit: 0, Bits: 1}, 1) // req
		insert(&fReq, PinRange{Lane: 3, StartBit: 1, Bits: 1}, 1) // rw=read
		busStim = append(busStim, fReq, Frame{})
	}
	resp, err := b.RunTestCycle(busStim)
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct the counter from the cycles where ack is high; the bus
	// lane carries the device's data only in those cycles (bus_oe high).
	var counter uint32
	reads := 0
	for _, f := range resp {
		if extract(f, PinRange{Lane: 8, StartBit: 1, Bits: 1}) == 1 {
			byteVal := extract(f, PinRange{Lane: 9, StartBit: 0, Bits: 8})
			counter |= uint32(byteVal) << (8 * uint(reads))
			reads++
		}
	}
	if reads != 4 {
		t.Fatalf("bus reads = %d, want 4", reads)
	}
	if counter != 7 {
		t.Errorf("counter over bus = %d, want 7", counter)
	}
	if dev.BusReads != 4 {
		t.Errorf("device bus reads = %d", dev.BusReads)
	}

	// In non-ack cycles the device does not drive; the response memory
	// must not contain stale bus data there.
	for i, f := range resp {
		ack := extract(f, PinRange{Lane: 8, StartBit: 1, Bits: 1})
		busVal := extract(f, PinRange{Lane: 9, StartBit: 0, Bits: 8})
		if ack == 0 && busVal != 0 {
			t.Errorf("cycle %d: lane driven (%#x) without bus_oe", i, busVal)
		}
	}
}

func TestBidirectionalBusCommandWrite(t *testing.T) {
	dev := cyclesim.NewBusAccounting(8)
	vc := atm.VC{VPI: 2, VCI: 22}
	slot, _ := dev.Register(vc)
	b := New(dev, 20e6, 8192)
	if err := b.Configure(AccountingConfig()); err != nil {
		t.Fatal(err)
	}
	// Meter 3 cells.
	var stim []Frame
	for k := 0; k < 3; k++ {
		c := &atm.Cell{Header: atm.Header{VPI: 2, VCI: 22}}
		img := c.Marshal()
		for i := 0; i < atm.CellBytes; i++ {
			var f Frame
			insert(&f, PinRange{Lane: 0, StartBit: 0, Bits: 8}, uint64(img[i]))
			if i == 0 {
				insert(&f, PinRange{Lane: 1, StartBit: 0, Bits: 1}, 1)
			}
			stim = append(stim, f)
		}
	}
	if _, err := b.RunTestCycle(stim); err != nil {
		t.Fatal(err)
	}
	if dev.Cells[slot] != 3 {
		t.Fatalf("metered %d", dev.Cells[slot])
	}
	// Command write: clear the slot via the board-driven direction of the
	// shared lane (rw=0, payload 0x01 on the bus).
	var fCmd Frame
	insert(&fCmd, PinRange{Lane: 2, StartBit: 0, Bits: 8}, uint64(slot<<2))
	insert(&fCmd, PinRange{Lane: 3, StartBit: 0, Bits: 1}, 1) // req
	insert(&fCmd, PinRange{Lane: 9, StartBit: 0, Bits: 8}, 0x01)
	if _, err := b.RunTestCycle([]Frame{fCmd, {}}); err != nil {
		t.Fatal(err)
	}
	if dev.Cells[slot] != 0 {
		t.Errorf("counter = %d after clear command", dev.Cells[slot])
	}
}
