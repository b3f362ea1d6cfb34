package dut

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
)

// AccountingUnit is the hardware device of the paper's case study: an ATM
// accounting (charging) unit that snoops a cell stream and maintains
// per-connection usage counters in an on-chip table, raising an exception
// strobe for cells on unregistered connections.
//
// The cell interface is the bit-level Fig.-4 structure; the counter table
// is exposed through a small synchronous read port (addr in, data out two
// cycles later), modeling the microprocessor interface real accounting
// hardware exposes to the billing software.
type AccountingUnit struct {
	HDL *hdl.Simulator

	// Cell input (snooped line).
	In CellPort

	// Exception strobe: one cycle high per cell on an unregistered VC.
	Exception *hdl.Signal

	// Read port: assert RdEn with RdAddr for one cycle; RdData is valid
	// two cycles later (registered table, registered output).
	RdAddr *hdl.Signal // table index, 8-bit
	RdEn   *hdl.Signal
	RdData *hdl.Signal // 32-bit counter value
	// RdSel selects which counter of the entry to read: 0 = total cells,
	// 1 = CLP1 cells.
	RdSel *hdl.Signal

	exceptionDrv *hdl.Driver
	rdDataDrv    *hdl.Driver

	// Table: index -> VC binding, loaded by control software before the
	// run (the modeled CAM).
	slots map[atm.VC]int
	nSlot int
	cap   int

	cells [256]uint32 // total cell counters
	clp1  [256]uint32 // CLP=1 cell counters

	// Pipeline for the two-cycle read.
	rdStage1Valid bool
	rdStage1Val   uint32

	// pendingExc requests a one-cycle exception pulse; excProc drives it
	// and parks while the strobe is low and nothing is pending.
	pendingExc bool
	excProc    *hdl.Process

	// Unregistered counts exception events (also visible as a register).
	Unregistered uint64
	// Observed counts metered (registered, non-idle) cells.
	Observed uint64
}

// NewAccountingUnit elaborates the unit. capacity is the number of table
// slots (max 256).
func NewAccountingUnit(h *hdl.Simulator, clk *hdl.Signal, capacity int) *AccountingUnit {
	if capacity <= 0 || capacity > 256 {
		panic(fmt.Sprintf("dut: accounting table capacity %d out of range", capacity))
	}
	u := &AccountingUnit{
		HDL:   h,
		cap:   capacity,
		slots: make(map[atm.VC]int),
	}
	u.In = CellPort{
		Data: h.Signal("acct_rx_data", 8, hdl.U),
		Sync: h.Bit("acct_rx_sync", hdl.U),
	}
	u.Exception = h.Bit("acct_exception", hdl.U)
	u.exceptionDrv = u.Exception.Driver("acct")
	u.exceptionDrv.SetBit(hdl.L0)
	u.RdAddr = h.Signal("acct_rd_addr", 8, hdl.U)
	u.RdEn = h.Bit("acct_rd_en", hdl.U)
	u.RdSel = h.Bit("acct_rd_sel", hdl.U)
	u.RdData = h.Signal("acct_rd_data", 32, hdl.U)
	u.rdDataDrv = u.RdData.Driver("acct")
	u.rdDataDrv.SetUint(0)

	rd := mapping.NewCellPortReader(h, "acct_rx", clk, u.In.Data, u.In.Sync)
	rd.OnCell = func(_ [atm.CellBytes]byte, hdr atm.Header) { u.meter(hdr) }

	// Exception strobe: exactly one clock cycle high per offending cell,
	// even when offending cells arrive back to back. The process runs
	// after the reader (registration order), so the pulse rises in the
	// same cycle the cell completes. Once it has driven the strobe low it
	// parks until meter sets pendingExc and wakes it.
	u.excProc = h.Clocked("acct_exc", clk, func() {
		if u.pendingExc {
			u.pendingExc = false
			u.exceptionDrv.SetBit(hdl.L1)
		} else {
			u.exceptionDrv.SetBit(hdl.L0)
			u.excProc.Park()
		}
	})

	// Read-port pipeline. With no read staged and RdEn not high a run
	// would change nothing, so it parks until RdEn changes.
	var rdProc *hdl.Process
	rdProc = h.Clocked("acct_rd", clk, func() {
		if u.rdStage1Valid {
			u.rdDataDrv.SetUint(uint64(u.rdStage1Val))
			u.rdStage1Valid = false
		}
		if !u.RdEn.Bit().IsHigh() {
			rdProc.Park()
			return
		}
		addr, ok := u.RdAddr.Uint()
		if !ok || int(addr) >= u.cap {
			return
		}
		if u.RdSel.Bit().IsHigh() {
			u.rdStage1Val = u.clp1[addr]
		} else {
			u.rdStage1Val = u.cells[addr]
		}
		u.rdStage1Valid = true
	})
	rdProc.WakeOn(u.RdEn)
	return u
}

// Register binds a VC to the next free table slot and returns its index.
// It models the control processor writing the CAM before traffic starts.
func (u *AccountingUnit) Register(vc atm.VC) (int, error) {
	if idx, dup := u.slots[vc]; dup {
		return idx, nil
	}
	if u.nSlot >= u.cap {
		return 0, fmt.Errorf("dut: accounting table full (%d slots)", u.cap)
	}
	idx := u.nSlot
	u.nSlot++
	u.slots[vc] = idx
	return idx, nil
}

// Slot returns the table index bound to vc.
func (u *AccountingUnit) Slot(vc atm.VC) (int, bool) {
	i, ok := u.slots[vc]
	return i, ok
}

func (u *AccountingUnit) meter(hdr atm.Header) {
	if hdr.IsIdle() || hdr.IsUnassigned() {
		return
	}
	idx, ok := u.slots[hdr.VC()]
	if !ok {
		u.Unregistered++
		u.pendingExc = true
		u.excProc.Wake()
		return
	}
	u.Observed++
	u.cells[idx]++
	if hdr.CLP == 1 {
		u.clp1[idx]++
	}
}

// Counter reads a counter directly (diagnostic backdoor used by tests to
// cross-check the signal-level read port).
func (u *AccountingUnit) Counter(idx int, clp1 bool) uint32 {
	if clp1 {
		return u.clp1[idx]
	}
	return u.cells[idx]
}
