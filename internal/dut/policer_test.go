package dut

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
	"castanet/internal/sim"
)

type policerRig struct {
	h   *hdl.Simulator
	u   *Policer
	w   *mapping.CellPortWriter
	out []*atm.Cell
}

func newPolicerRig(action PolicerAction) *policerRig {
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, clkPeriod)
	u := NewPolicer(h, clk, 16)
	u.Action = action
	w := mapping.NewCellPortWriter(h, "tb_tx", clk, u.In.Data, u.In.Sync)
	rig := &policerRig{h: h, u: u, w: w}
	rd := mapping.NewCellPortReader(h, "tb_rx", clk, u.Out.Data, u.Out.Sync)
	rd.OnCell = func(img [atm.CellBytes]byte, _ atm.Header) {
		c, _ := atm.Unmarshal(img)
		rig.out = append(rig.out, c)
	}
	return rig
}

// sendAt schedules a cell for transmission starting at the given cycle.
func (r *policerRig) sendAt(t *testing.T, cycle int, c *atm.Cell) {
	t.Helper()
	c.StampSeq()
	r.h.Schedule(sim.Duration(cycle)*clkPeriod, func() { r.w.Enqueue(c.Marshal(), 0) })
}

func (r *policerRig) run(t *testing.T, cycles int) {
	t.Helper()
	if err := r.h.Run(sim.Duration(cycles) * clkPeriod); err != nil {
		t.Fatal(err)
	}
}

func TestPolicerConformingStreamPasses(t *testing.T) {
	rig := newPolicerRig(PolicerDiscard)
	vc := atm.VC{VPI: 1, VCI: 10}
	// Contract: one cell per 100 cycles, no tolerance.
	if err := rig.u.Contract(vc, 100, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rig.sendAt(t, i*120, &atm.Cell{Header: atm.Header{VPI: 1, VCI: 10}, Seq: uint32(i)})
	}
	rig.run(t, 5*120+200)
	if len(rig.out) != 5 {
		t.Fatalf("passed %d cells, want 5", len(rig.out))
	}
	if rig.u.Conforming != 5 || rig.u.NonConforming != 0 {
		t.Errorf("counters: %d/%d", rig.u.Conforming, rig.u.NonConforming)
	}
}

func TestPolicerDiscardsBurst(t *testing.T) {
	rig := newPolicerRig(PolicerDiscard)
	vc := atm.VC{VPI: 1, VCI: 10}
	if err := rig.u.Contract(vc, 200, 0); err != nil {
		t.Fatal(err)
	}
	// Cells at 60-cycle spacing against a 200-cycle contract: roughly two
	// of every three violate.
	for i := 0; i < 6; i++ {
		rig.sendAt(t, i*60, &atm.Cell{Header: atm.Header{VPI: 1, VCI: 10}, Seq: uint32(i)})
	}
	rig.run(t, 6*60+400)
	if rig.u.NonConforming == 0 {
		t.Fatal("burst not policed")
	}
	if rig.u.Discarded != rig.u.NonConforming {
		t.Errorf("discarded %d != nonconforming %d", rig.u.Discarded, rig.u.NonConforming)
	}
	if uint64(len(rig.out)) != rig.u.Conforming {
		t.Errorf("out %d != conforming %d", len(rig.out), rig.u.Conforming)
	}
}

func TestPolicerTagging(t *testing.T) {
	rig := newPolicerRig(PolicerTag)
	vc := atm.VC{VPI: 2, VCI: 20}
	if err := rig.u.Contract(vc, 300, 0); err != nil {
		t.Fatal(err)
	}
	// Back-to-back pair: second violates and must emerge with CLP=1.
	rig.sendAt(t, 0, &atm.Cell{Header: atm.Header{VPI: 2, VCI: 20}, Seq: 0})
	rig.sendAt(t, 60, &atm.Cell{Header: atm.Header{VPI: 2, VCI: 20}, Seq: 1})
	rig.run(t, 600)
	if len(rig.out) != 2 {
		t.Fatalf("out = %d cells, want 2 (tagging passes violators)", len(rig.out))
	}
	if rig.out[0].CLP != 0 {
		t.Errorf("first cell tagged: clp=%d", rig.out[0].CLP)
	}
	if rig.out[1].CLP != 1 {
		t.Errorf("violator not tagged: clp=%d", rig.out[1].CLP)
	}
	// The tagged cell's HEC must have been recomputed (the test-bench
	// reader verified it, or the cell would have been dropped).
	if rig.u.Tagged != 1 {
		t.Errorf("Tagged = %d", rig.u.Tagged)
	}
}

func TestPolicerTagDropsCLP1Violators(t *testing.T) {
	rig := newPolicerRig(PolicerTag)
	vc := atm.VC{VPI: 2, VCI: 20}
	if err := rig.u.Contract(vc, 300, 0); err != nil {
		t.Fatal(err)
	}
	rig.sendAt(t, 0, &atm.Cell{Header: atm.Header{VPI: 2, VCI: 20}, Seq: 0})
	rig.sendAt(t, 60, &atm.Cell{Header: atm.Header{VPI: 2, VCI: 20, CLP: 1}, Seq: 1})
	rig.run(t, 600)
	if len(rig.out) != 1 {
		t.Fatalf("out = %d cells, want 1 (CLP=1 violator discarded)", len(rig.out))
	}
	if rig.u.Discarded != 1 {
		t.Errorf("Discarded = %d", rig.u.Discarded)
	}
}

func TestPolicerToleranceAdmitsJitter(t *testing.T) {
	rig := newPolicerRig(PolicerDiscard)
	vc := atm.VC{VPI: 3, VCI: 30}
	// 100-cycle contract with 50 cycles of CDV tolerance.
	if err := rig.u.Contract(vc, 100, 50); err != nil {
		t.Fatal(err)
	}
	// Jittered but compliant stream: nominal 100, jitter within ±50.
	times := []int{0, 60, 210, 280, 400}
	for i, at := range times {
		rig.sendAt(t, at, &atm.Cell{Header: atm.Header{VPI: 3, VCI: 30}, Seq: uint32(i)})
	}
	rig.run(t, 800)
	if rig.u.NonConforming != 0 {
		t.Errorf("jitter within tolerance policed: %d violations", rig.u.NonConforming)
	}
	if len(rig.out) != len(times) {
		t.Errorf("out = %d, want %d", len(rig.out), len(times))
	}
}

func TestPolicerUnregisteredPasses(t *testing.T) {
	rig := newPolicerRig(PolicerDiscard)
	rig.sendAt(t, 0, &atm.Cell{Header: atm.Header{VPI: 9, VCI: 99}, Seq: 0})
	rig.sendAt(t, 55, &atm.Cell{Header: atm.Header{VPI: 9, VCI: 99}, Seq: 1})
	rig.run(t, 400)
	if len(rig.out) != 2 || rig.u.Passed != 2 {
		t.Errorf("unpoliced traffic blocked: out=%d passed=%d", len(rig.out), rig.u.Passed)
	}
}

func TestPolicerViolationStrobe(t *testing.T) {
	rig := newPolicerRig(PolicerDiscard)
	vc := atm.VC{VPI: 1, VCI: 1}
	if err := rig.u.Contract(vc, 500, 0); err != nil {
		t.Fatal(err)
	}
	strobes := 0
	rig.u.Violation.OnChange(func(now sim.Time, old, new hdl.LV) {
		if new[0].IsHigh() {
			strobes++
		}
	})
	// Three back-to-back cells: cells 2 and 3 violate.
	for i := 0; i < 3; i++ {
		rig.sendAt(t, i*55, &atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}, Seq: uint32(i)})
	}
	rig.run(t, 900)
	if rig.u.NonConforming != 2 {
		t.Fatalf("violations = %d, want 2", rig.u.NonConforming)
	}
	if strobes != 2 {
		t.Errorf("violation strobes = %d, want 2", strobes)
	}
}

func TestPolicerContractErrors(t *testing.T) {
	rig := newPolicerRig(PolicerDiscard)
	vc := atm.VC{VPI: 1, VCI: 1}
	if err := rig.u.Contract(vc, 0, 0); err == nil {
		t.Error("zero increment accepted")
	}
	if err := rig.u.Contract(vc, 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := rig.u.Contract(vc, 100, 0); err == nil {
		t.Error("duplicate contract accepted")
	}
}
