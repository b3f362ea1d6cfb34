package hdl

import "fmt"

// This file provides the small synthesizable designs the kernel tests
// elaborate: clocked registers, counters, shift registers and synchronous
// FIFOs. Each component is elaborated onto a Simulator as a rising-edge
// process (Simulator.Clocked) plus its interface signals, the way a VHDL
// entity would be instantiated. The device models under internal/dut
// write their own port machines and use none of these.

// Reg is a clocked register with synchronous enable and reset.
type Reg struct {
	Q *Signal // registered output

	d   *Signal
	en  *Signal
	rst *Signal
}

// NewReg elaborates a register: on each rising clock edge, if rst is high
// Q clears to zero, otherwise if en is high Q takes D. A nil en means
// always enabled; a nil rst means never reset.
func NewReg(s *Simulator, name string, clk, d, en, rst *Signal) *Reg {
	r := &Reg{Q: s.Signal(name+"_q", d.Width(), U), d: d, en: en, rst: rst}
	drv := r.Q.Driver(name)
	s.Clocked(name, clk, func() {
		if rst != nil && rst.Bit().IsHigh() {
			drv.SetUint(0)
			return
		}
		if en == nil || en.Bit().IsHigh() {
			if d.pknown {
				// Two-state value with a valid packed mirror: move the
				// word, not the vector. Identical committed value.
				drv.SetUint(d.pval)
			} else {
				drv.Set(d.Val().Clone())
			}
		}
	})
	return r
}

// Counter is an up-counter with synchronous enable and reset.
type Counter struct {
	Q *Signal
}

// NewCounter elaborates a width-bit counter that increments on every
// enabled rising edge and wraps at 2^width.
func NewCounter(s *Simulator, name string, width int, clk, en, rst *Signal) *Counter {
	c := &Counter{Q: s.Signal(name+"_q", width, U)}
	drv := c.Q.Driver(name)
	drv.SetUint(0)
	s.Clocked(name, clk, func() {
		if rst != nil && rst.Bit().IsHigh() {
			drv.SetUint(0)
			return
		}
		if en == nil || en.Bit().IsHigh() {
			drv.Set(c.Q.Val().Incr())
		}
	})
	return c
}

// ShiftReg is a serial-in parallel-out shift register (LSB first).
type ShiftReg struct {
	Q *Signal
}

// NewShiftReg elaborates a width-bit shift register sampling the one-bit
// din on every enabled rising edge; new bits enter at the most
// significant position and shift toward bit 0.
func NewShiftReg(s *Simulator, name string, width int, clk, din, en *Signal) *ShiftReg {
	if din.Width() != 1 {
		panic("hdl: shift register input must be one bit")
	}
	r := &ShiftReg{Q: s.Signal(name+"_q", width, U)}
	drv := r.Q.Driver(name)
	drv.SetUint(0)
	s.Clocked(name, clk, func() {
		if en != nil && !en.Bit().IsHigh() {
			return
		}
		cur := r.Q.Val()
		next := make(LV, width)
		copy(next, cur[1:])
		next[width-1] = din.Bit().to01()
		drv.Set(next)
	})
	return r
}

// FIFO is a synchronous first-in first-out buffer with wr/rd strobes,
// full/empty flags and registered read data — the ubiquitous elastic
// buffer of cell-based hardware.
type FIFO struct {
	// Interface signals.
	WrEn  *Signal // input: write strobe
	WrDat *Signal // input: write data
	RdEn  *Signal // input: read strobe
	RdDat *Signal // output: read data, valid the cycle after RdEn
	Full  *Signal // output
	Empty *Signal // output

	depth int
	mem   []LV
	// Overflows/Underflows count strobes that violated the flags; real
	// hardware ignores them, diagnostics count them.
	Overflows  uint64
	Underflows uint64
}

// NewFIFO elaborates a FIFO of the given width and depth. The caller
// drives WrEn/WrDat/RdEn; the FIFO drives RdDat/Full/Empty.
func NewFIFO(s *Simulator, name string, width, depth int, clk *Signal) *FIFO {
	if depth <= 0 {
		panic(fmt.Sprintf("hdl: FIFO depth %d", depth))
	}
	f := &FIFO{
		WrEn:  s.Bit(name+"_wr_en", U),
		WrDat: s.Signal(name+"_wr_dat", width, U),
		RdEn:  s.Bit(name+"_rd_en", U),
		RdDat: s.Signal(name+"_rd_dat", width, U),
		Full:  s.Bit(name+"_full", U),
		Empty: s.Bit(name+"_empty", U),
		depth: depth,
	}
	dRd := f.RdDat.Driver(name)
	dFull := f.Full.Driver(name)
	dEmpty := f.Empty.Driver(name)
	dRd.SetUint(0)
	dFull.SetBit(L0)
	dEmpty.SetBit(L1)
	s.Clocked(name, clk, func() {
		// Read before write within a cycle (classic FWFT-less FIFO):
		if f.RdEn.Bit().IsHigh() {
			if len(f.mem) == 0 {
				f.Underflows++
			} else {
				dRd.Set(f.mem[0])
				f.mem = f.mem[1:]
			}
		}
		if f.WrEn.Bit().IsHigh() {
			if len(f.mem) >= f.depth {
				f.Overflows++
			} else {
				f.mem = append(f.mem, f.WrDat.Val().Clone())
			}
		}
		if len(f.mem) >= f.depth {
			dFull.SetBit(L1)
		} else {
			dFull.SetBit(L0)
		}
		if len(f.mem) == 0 {
			dEmpty.SetBit(L1)
		} else {
			dEmpty.SetBit(L0)
		}
	})
	return f
}

// Len returns the current occupancy (test/diagnostic view).
func (f *FIFO) Len() int { return len(f.mem) }
