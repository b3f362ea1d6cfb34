package dut

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
	"castanet/internal/sim"
)

// PolicerAction selects what UPC hardware does with a non-conforming
// cell.
type PolicerAction int

// Policing actions per ITU-T I.371.
const (
	// PolicerDiscard drops violating cells.
	PolicerDiscard PolicerAction = iota
	// PolicerTag demotes violating cells to CLP=1 (and discards violating
	// cells that are already CLP=1).
	PolicerTag
)

// Policer is a usage-parameter-control unit: hardware GCRA per
// connection, the core traffic-management function the paper names as
// CASTANET's application domain. Cells stream in on the Fig.-4 bit-level
// port; conforming cells stream out unchanged, violators are discarded or
// tagged. Time is the device's clock cycle count, exactly as UPC silicon
// measures arrival times.
type Policer struct {
	HDL *hdl.Simulator

	In  CellPort
	Out CellPort

	Action PolicerAction

	// Violation strobes one clock per non-conforming cell.
	Violation *hdl.Signal

	clk          *hdl.Signal
	writer       *mapping.CellPortWriter
	violationDrv *hdl.Driver
	violProc     *hdl.Process
	pendingViol  bool

	slots map[atm.VC]*policerSlot
	cap   int

	// Counters (diagnostic registers).
	Conforming    uint64
	NonConforming uint64
	Tagged        uint64
	Discarded     uint64
	Passed        uint64 // unregistered connections pass unpoliced
}

// policerSlot is the per-connection GCRA state: increment and limit in
// clock cycles, theoretical arrival time as an absolute cycle number.
type policerSlot struct {
	incr    uint64
	limit   uint64
	tat     uint64
	started bool
}

// NewPolicer elaborates the policing unit with the given connection table
// capacity.
func NewPolicer(h *hdl.Simulator, clk *hdl.Signal, capacity int) *Policer {
	if capacity <= 0 {
		panic("dut: policer capacity must be positive")
	}
	p := &Policer{HDL: h, clk: clk, cap: capacity, slots: make(map[atm.VC]*policerSlot)}
	p.In = CellPort{
		Data: h.Signal("upc_rx_data", 8, hdl.U),
		Sync: h.Bit("upc_rx_sync", hdl.U),
	}
	p.Out = CellPort{
		Data: h.Signal("upc_tx_data", 8, hdl.U),
		Sync: h.Bit("upc_tx_sync", hdl.U),
	}
	p.Violation = h.Bit("upc_violation", hdl.U)
	p.violationDrv = p.Violation.Driver("upc")
	p.violationDrv.SetBit(hdl.L0)

	rd := mapping.NewCellPortReader(h, "upc_rx", clk, p.In.Data, p.In.Sync)
	rd.OnCell = p.police

	p.writer = mapping.NewCellPortWriter(h, "upc_tx", clk, p.Out.Data, p.Out.Sync)

	// The one-clock violation strobe. Once it has driven the strobe low it
	// parks until police sets pendingViol and wakes it.
	p.violProc = h.Clocked("upc_viol", clk, func() {
		if p.pendingViol {
			p.pendingViol = false
			p.violationDrv.SetBit(hdl.L1)
		} else {
			p.violationDrv.SetBit(hdl.L0)
			p.violProc.Park()
		}
	})
	return p
}

// cycle is the hardware time base: the number of clock cycles completed
// before the current rising edge. police runs from the cell reader at a
// rising edge, which the kernel's count already includes.
func (p *Policer) cycle() uint64 { return p.HDL.RisingEdges(p.clk) - 1 }

// Contract installs a policing contract: peak cell interval and cell
// delay variation tolerance, both in clock cycles (the hardware time
// base). It models control software writing the UPC parameter table.
func (p *Policer) Contract(vc atm.VC, incrCycles, limitCycles uint64) error {
	if incrCycles == 0 {
		return fmt.Errorf("dut: policer increment must be positive")
	}
	if _, dup := p.slots[vc]; dup {
		return fmt.Errorf("dut: contract for %v already installed", vc)
	}
	if len(p.slots) >= p.cap {
		return fmt.Errorf("dut: policer table full (%d)", p.cap)
	}
	p.slots[vc] = &policerSlot{incr: incrCycles, limit: limitCycles}
	return nil
}

// ContractFor converts time-domain parameters to cycles and installs the
// contract.
func (p *Policer) ContractFor(vc atm.VC, peakInterval, tau, clockPeriod sim.Duration) error {
	return p.Contract(vc, uint64(peakInterval/clockPeriod), uint64(tau/clockPeriod))
}

// police implements the virtual scheduling algorithm on the cycle
// counter.
func (p *Policer) police(img [atm.CellBytes]byte, hdr atm.Header) {
	if hdr.IsIdle() || hdr.IsUnassigned() {
		return
	}
	now := p.cycle()
	slot, ok := p.slots[hdr.VC()]
	if !ok {
		p.Passed++
		p.writer.Enqueue(img, 0)
		return
	}
	conforms := false
	switch {
	case !slot.started:
		slot.started = true
		slot.tat = now + slot.incr
		conforms = true
	case now+slot.limit >= slot.tat:
		if now > slot.tat {
			slot.tat = now
		}
		slot.tat += slot.incr
		conforms = true
	}
	if conforms {
		p.Conforming++
		p.writer.Enqueue(img, 0)
		return
	}
	p.NonConforming++
	p.pendingViol = true
	p.violProc.Wake()
	switch p.Action {
	case PolicerTag:
		if hdr.CLP == 1 {
			p.Discarded++
			return
		}
		hdr.CLP = 1
		tagged := hdr.MarshalHeader()
		copy(img[:atm.HeaderBytes], tagged[:])
		p.Tagged++
		p.writer.Enqueue(img, 0)
	default:
		p.Discarded++
	}
}
