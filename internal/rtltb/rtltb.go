// Package rtltb is the traditional register-transfer-level regression
// test bench the paper's approach replaces: stimulus generators and
// response checkers written as clocked hardware processes inside the HDL
// simulator itself. Its generator keeps an LFSR, a gap down-counter and a
// vector-ROM index as real signals toggling every clock; its checker
// recomputes the HEC octet byte-serially on live signals. Every one of
// those per-clock signal updates is an event the event-driven simulator
// must evaluate — the blow-up that makes pure-VHDL test benches slow and
// motivates reusing network-level test benches instead (experiment E1).
package rtltb

import (
	"castanet/internal/atm"
	"castanet/internal/hdl"
)

// Generator plays a precompiled list of (gap, cell) stimulus vectors onto
// a bit-level cell port, the way a VHDL test bench reads a vector file.
// All sequencing state lives in signals.
type Generator struct {
	// Done is high once every vector has been played.
	Done *hdl.Signal

	// Emitted counts cells completely transmitted.
	Emitted uint64
}

// Vector is one stimulus entry: wait GapCycles, then transmit Cell.
type Vector struct {
	GapCycles int
	Cell      *atm.Cell
}

// NewGenerator elaborates a stimulus generator driving data/sync.
func NewGenerator(h *hdl.Simulator, name string, clk, data, sync *hdl.Signal, vectors []Vector) *Generator {
	g := &Generator{Done: h.Bit(name+"_done", hdl.U)}

	images := make([][atm.CellBytes]byte, len(vectors))
	for i, v := range vectors {
		c := v.Cell.Clone()
		c.StampSeq()
		images[i] = c.Marshal()
	}

	// Test-bench state, all as signals (romIdx/gapCnt/byteCnt/lfsr change
	// every cycle while active — the realistic RTL-TB event load).
	romIdx := h.Signal(name+"_rom_idx", 16, hdl.U)
	gapCnt := h.Signal(name+"_gap_cnt", 16, hdl.U)
	byteCnt := h.Signal(name+"_byte_cnt", 8, hdl.U)
	lfsr := h.Signal(name+"_lfsr", 16, hdl.U)

	dIdx := romIdx.Driver(name)
	dGap := gapCnt.Driver(name)
	dByte := byteCnt.Driver(name)
	dLfsr := lfsr.Driver(name)
	dData := data.Driver(name)
	dSync := sync.Driver(name)
	dDone := g.Done.Driver(name)

	dIdx.SetUint(0)
	dGap.SetUint(0)
	dByte.SetUint(0xFF) // idle marker
	dLfsr.SetUint(0xACE1)
	dData.SetUint(0)
	dSync.SetBit(hdl.L0)
	dDone.SetBit(hdl.L0)

	if len(vectors) > 0 {
		dGap.SetUint(uint64(vectors[0].GapCycles))
	} else {
		dDone.SetBit(hdl.L1)
	}

	h.Clocked(name, clk, func() {
		// Free-running LFSR (x^16+x^14+x^13+x^11+1), as TBs use for
		// randomized fields; one 16-bit signal event per clock.
		lv, ok := lfsr.Uint()
		if ok {
			bit := (lv ^ lv>>2 ^ lv>>3 ^ lv>>5) & 1
			dLfsr.SetUint(lv>>1 | bit<<15)
		}

		idx, _ := romIdx.Uint()
		if int(idx) >= len(vectors) {
			dDone.SetBit(hdl.L1)
			dSync.SetBit(hdl.L0)
			dData.SetUint(0)
			return
		}
		gap, _ := gapCnt.Uint()
		bc, _ := byteCnt.Uint()
		if bc == 0xFF { // idle: counting the gap down
			if gap > 0 {
				dGap.SetUint(gap - 1)
				dSync.SetBit(hdl.L0)
				dData.SetUint(0)
				return
			}
			bc = 0
		}
		img := images[idx]
		dData.SetUint(uint64(img[bc]))
		if bc == 0 {
			dSync.SetBit(hdl.L1)
		} else {
			dSync.SetBit(hdl.L0)
		}
		if int(bc) == atm.CellBytes-1 {
			g.Emitted++
			dByte.SetUint(0xFF)
			dIdx.SetUint(idx + 1)
			if int(idx+1) < len(vectors) {
				dGap.SetUint(uint64(vectors[idx+1].GapCycles))
			}
		} else {
			dByte.SetUint(bc + 1)
		}
	})
	return g
}

// wdogReload is the watchdog monitor's timeout in clock cycles (a few
// cell times of line silence).
const wdogReload = 256

// Checker is the response side of the RTL test bench: it follows a cell
// port byte by byte, recomputing the HEC in a live 8-bit accumulator
// signal and counting cells and errors in counter signals.
type Checker struct {
	// CellCount/ErrCount are 16-bit counter signals, readable by the
	// test bench top level like any DUT diagnostic output.
	CellCount *hdl.Signal
	ErrCount  *hdl.Signal

	// Cells/Errors mirror the counters for the Go-side harness.
	Cells  uint64
	Errors uint64
}

// NewChecker elaborates a checker watching data/sync. Besides the HEC
// recomputation it carries the usual regression-bench monitors: a header
// shift register capturing the VPI/VCI of every cell, and a free-running
// watchdog counter that a timeout process would use to flag a dead line —
// both live signals updated every clock, as real test-bench processes are.
func NewChecker(h *hdl.Simulator, name string, clk, data, sync *hdl.Signal) *Checker {
	c := &Checker{
		CellCount: h.Signal(name+"_cells", 16, hdl.U),
		ErrCount:  h.Signal(name+"_errs", 16, hdl.U),
	}
	hecAcc := h.Signal(name+"_hec", 8, hdl.U)
	byteCnt := h.Signal(name+"_byte", 8, hdl.U)
	hdrReg := h.Signal(name+"_hdr", 24, hdl.U)
	watchdog := h.Signal(name+"_wdog", 16, hdl.U)

	dCells := c.CellCount.Driver(name)
	dErrs := c.ErrCount.Driver(name)
	dHec := hecAcc.Driver(name)
	dByte := byteCnt.Driver(name)
	dHdr := hdrReg.Driver(name)
	dWdog := watchdog.Driver(name)
	dCells.SetUint(0)
	dErrs.SetUint(0)
	dHec.SetUint(0)
	dByte.SetUint(0xFF)
	dHdr.SetUint(0)
	dWdog.SetUint(wdogReload)

	// crcStep is the byte-serial CRC-8 update (x^8+x^2+x+1) the checker
	// hardware would implement as XOR trees.
	crcStep := func(crc, b byte) byte {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		return crc
	}

	h.Clocked(name, clk, func() {
		// Watchdog: reloaded by cell sync, otherwise counting down every
		// cycle (a timeout monitor keeps ticking through idle periods).
		if sync.Bit().IsHigh() {
			dWdog.SetUint(wdogReload)
		} else if wd, ok := watchdog.Uint(); ok && wd > 0 {
			dWdog.SetUint(wd - 1)
		}
		bc, _ := byteCnt.Uint()
		acc, _ := hecAcc.Uint()
		if sync.Bit().IsHigh() {
			bc = 0
			acc = 0 // restart the accumulator with this cell
		} else if bc == 0xFF {
			return
		}
		// Header monitor: shift the first three octets into the header
		// register for protocol coverage collection.
		if bc < 3 {
			if hv, ok := hdrReg.Uint(); ok {
				if dv, ok2 := data.Uint(); ok2 {
					dHdr.SetUint((hv<<8 | dv) & 0xFFFFFF)
				}
			}
		}
		bu, ok := data.Uint()
		b := byte(bu)
		if !ok {
			ec, _ := c.ErrCount.Uint()
			dErrs.SetUint(ec + 1)
			c.Errors++
			dByte.SetUint(0xFF)
			return
		}
		switch {
		case bc < 4:
			dHec.SetUint(uint64(crcStep(byte(acc), b)))
		case bc == 4:
			if byte(acc)^0x55 != b {
				ec, _ := c.ErrCount.Uint()
				dErrs.SetUint(ec + 1)
				c.Errors++
			}
		}
		if int(bc) == atm.CellBytes-1 {
			cc, _ := c.CellCount.Uint()
			dCells.SetUint(cc + 1)
			c.Cells++
			dByte.SetUint(0xFF)
		} else {
			dByte.SetUint(bc + 1)
		}
	})
	return c
}
