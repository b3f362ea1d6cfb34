package dut

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
	"castanet/internal/sim"
)

type acctRig struct {
	h   *hdl.Simulator
	u   *AccountingUnit
	w   *mapping.CellPortWriter
	clk *hdl.Signal
}

func newAcctRig(capacity int) *acctRig {
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, clkPeriod)
	u := NewAccountingUnit(h, clk, capacity)
	w := mapping.NewCellPortWriter(h, "tb_tx", clk, u.In.Data, u.In.Sync)
	return &acctRig{h: h, u: u, w: w, clk: clk}
}

func (r *acctRig) run(t *testing.T, d sim.Duration) {
	t.Helper()
	if err := r.h.Run(r.h.Now() + d); err != nil {
		t.Fatal(err)
	}
}

func TestAccountingUnitCounts(t *testing.T) {
	rig := newAcctRig(16)
	vcA := atm.VC{VPI: 1, VCI: 10}
	vcB := atm.VC{VPI: 2, VCI: 20}
	slotA, err := rig.u.Register(vcA)
	if err != nil {
		t.Fatal(err)
	}
	slotB, _ := rig.u.Register(vcB)
	for i := 0; i < 5; i++ {
		rig.w.Enqueue((&atm.Cell{Header: atm.Header{VPI: 1, VCI: 10}}).Marshal(), 0)
	}
	for i := 0; i < 3; i++ {
		rig.w.Enqueue((&atm.Cell{Header: atm.Header{VPI: 2, VCI: 20, CLP: 1}}).Marshal(), 0)
	}
	rig.run(t, 9*60*clkPeriod)
	if got := rig.u.Counter(slotA, false); got != 5 {
		t.Errorf("vcA cells = %d, want 5", got)
	}
	if got := rig.u.Counter(slotA, true); got != 0 {
		t.Errorf("vcA clp1 = %d, want 0", got)
	}
	if got := rig.u.Counter(slotB, false); got != 3 {
		t.Errorf("vcB cells = %d, want 3", got)
	}
	if got := rig.u.Counter(slotB, true); got != 3 {
		t.Errorf("vcB clp1 = %d, want 3", got)
	}
	if rig.u.Unregistered != 0 {
		t.Errorf("unregistered = %d", rig.u.Unregistered)
	}
}

func TestAccountingUnitException(t *testing.T) {
	rig := newAcctRig(4)
	rig.u.Register(atm.VC{VPI: 1, VCI: 10})
	exceptions := 0
	rig.u.Exception.OnChange(func(now sim.Time, old, new hdl.LV) {
		if new[0].IsHigh() {
			exceptions++
		}
	})
	rig.w.Enqueue((&atm.Cell{Header: atm.Header{VPI: 7, VCI: 77}}).Marshal(), 0) // unregistered
	rig.w.Enqueue((&atm.Cell{Header: atm.Header{VPI: 1, VCI: 10}}).Marshal(), 0) // registered
	rig.run(t, 3*60*clkPeriod)
	if rig.u.Unregistered != 1 {
		t.Errorf("Unregistered = %d", rig.u.Unregistered)
	}
	if exceptions != 1 {
		t.Errorf("exception strobes = %d, want 1", exceptions)
	}
	if rig.u.Observed != 1 {
		t.Errorf("Observed = %d", rig.u.Observed)
	}
}

func TestAccountingUnitIgnoresIdle(t *testing.T) {
	rig := newAcctRig(4)
	rig.u.Register(atm.VC{VPI: 1, VCI: 10})
	// An idle-filled line around one user cell.
	idle := atm.IdleCell().Marshal()
	for i := 0; i < 5; i++ {
		rig.w.Enqueue(idle, 0)
	}
	rig.w.Enqueue((&atm.Cell{Header: atm.Header{VPI: 1, VCI: 10}}).Marshal(), 0)
	for i := 0; i < 5; i++ {
		rig.w.Enqueue(idle, 0)
	}
	rig.run(t, 10*60*clkPeriod)
	if rig.u.Observed != 1 {
		t.Errorf("Observed = %d (idle cells metered?)", rig.u.Observed)
	}
	if rig.u.Unregistered != 0 {
		t.Errorf("idle cells raised exceptions: %d", rig.u.Unregistered)
	}
}

func TestAccountingReadPort(t *testing.T) {
	rig := newAcctRig(8)
	vc := atm.VC{VPI: 3, VCI: 30}
	slot, _ := rig.u.Register(vc)
	for i := 0; i < 7; i++ {
		rig.w.Enqueue((&atm.Cell{Header: atm.Header{VPI: 3, VCI: 30}}).Marshal(), 0)
	}
	rig.run(t, 8*60*clkPeriod)

	// Drive the read port: addr+en for one cycle, sample RdData two
	// cycles later.
	addrDrv := rig.u.RdAddr.Driver("tb")
	enDrv := rig.u.RdEn.Driver("tb")
	selDrv := rig.u.RdSel.Driver("tb")
	addrDrv.SetUint(uint64(slot))
	selDrv.SetBit(hdl.L0)
	enDrv.SetBit(hdl.L1)
	rig.run(t, clkPeriod)
	enDrv.SetBit(hdl.L0)
	rig.run(t, 3*clkPeriod)
	got, ok := rig.u.RdData.Uint()
	if !ok {
		t.Fatalf("RdData undefined: %v", rig.u.RdData.Val())
	}
	if got != 7 {
		t.Errorf("read port returned %d, want 7", got)
	}
}

func TestAccountingTableFull(t *testing.T) {
	rig := newAcctRig(2)
	if _, err := rig.u.Register(atm.VC{VPI: 1, VCI: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.u.Register(atm.VC{VPI: 1, VCI: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.u.Register(atm.VC{VPI: 1, VCI: 3}); err == nil {
		t.Error("over-capacity registration accepted")
	}
	// Re-registering an existing VC is idempotent, not a new slot.
	idx, err := rig.u.Register(atm.VC{VPI: 1, VCI: 1})
	if err != nil || idx != 0 {
		t.Errorf("re-register = %d, %v", idx, err)
	}
}
