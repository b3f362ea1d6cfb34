package coverify

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/cosim"
	"castanet/internal/dut"
	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// KindRawCell carries raw 53-octet images (conformance vectors, possibly
// invalid by construction) into the accounting unit's line.
const KindRawCell = ipc.KindUser + 32

// AcctRigConfig parameterizes the accounting-unit case study (§4 of the
// paper: "We have used CASTANET for the functional verification of an ATM
// accounting unit").
type AcctRigConfig struct {
	Seed uint64
	// VCs are the metered connections.
	VCs []atm.VC
	// Tariff for the reference charging computation.
	Tariff atm.Tariff
	// Sources describes the traffic: per entry a model, a VC index into
	// VCs (or -1 for an unregistered connection) and a cell budget.
	Sources []AcctSource
	// Run is the observation handle (see SwitchRigConfig.Run). Its Cover
	// also receives the metering event bins under "coverify.acct", folded
	// once from the hardware's end-of-run counters.
	obs.Run
}

// AcctSource is one traffic stream of the case study.
type AcctSource struct {
	Model traffic.Model
	VC    int // index into VCs, or -1 for an unregistered VC
	CLP1  float64
	Cells uint64
}

// AcctRig is the accounting-unit co-verification environment: the same
// cell stream is metered by the algorithmic reference (atm.Accounting)
// and, through the coupling, by the RTL accounting unit; at end of run
// the per-connection counters and charging units are compared.
type AcctRig struct {
	Harness
	Cfg AcctRigConfig

	DUT *dut.AccountingUnit
	Ref *atm.Accounting

	refNode *netsim.Node
	// Exceptions counts hardware exception strobes observed.
	Exceptions uint64

	coverEvent *obs.CoverPoint
}

// NewAcctRig elaborates the environment.
func NewAcctRig(cfg AcctRigConfig) *AcctRig {
	if cfg.Tariff.CellsPerUnit == 0 {
		cfg.Tariff = atm.Tariff{CellsPerUnit: 100}
	}
	r := &AcctRig{Cfg: cfg}
	r.coverEvent = cfg.Cover.Group("coverify.acct").Point("event",
		"metered", "clp1", "unregistered", "exception")

	r.kernel(SwitchRigConfig{
		Seed: cfg.Seed, Delta: 64 * clockPeriod, SyncEvery: syncEvery, Run: cfg.Run,
	})
	// The accounting rig's coverage was recorded with the final window's
	// synchronization lag counted.
	r.countFlushLag = true
	r.DUT = dut.NewAccountingUnit(r.HDL, r.clk, 256)
	r.DUT.Exception.OnChange(func(now sim.Time, old, new hdl.LV) {
		if new[0].IsHigh() {
			r.Exceptions++
		}
	})
	r.Ref = atm.NewAccounting(cfg.Tariff)
	for _, vc := range cfg.VCs {
		r.Ref.Register(vc)
		if _, err := r.DUT.Register(vc); err != nil {
			panic(err)
		}
	}

	r.entity()
	w := r.writer("castanet_tx", 0, r.DUT.In)
	r.Entity.Input(KindRawCell, r.cfg.Delta, func(e *cosim.Entity, msg ipc.Message) error {
		if len(msg.Data) != atm.CellBytes {
			return fmt.Errorf("coverify: raw vector of %d bytes", len(msg.Data))
		}
		w.Enqueue([atm.CellBytes]byte(msg.Data), 0)
		return nil
	})
	r.registry.Register(KindRawCell, mapping.BytesCodec{})

	r.network(nil, func(pkt *netsim.Packet, port int) ipc.Kind {
		if _, raw := pkt.Data.([]byte); raw {
			return KindRawCell
		}
		return KindCellIn(0)
	})
	r.attach()
	r.refNode = r.Net.Node("refacct", &acctRefProc{rig: r})
	for i, s := range cfg.Sources {
		r.feed(i, s.Model, s.Cells, func(ctx *netsim.Ctx, k uint64) *atm.Cell {
			vc := atm.VC{VPI: 0xEE, VCI: 0xEEE} // deliberately unregistered
			if s.VC >= 0 {
				vc = cfg.VCs[s.VC]
			}
			return r.newCell(ctx, vc, s.CLP1)
		}, r.refNode, 0, 0)
	}
	return r
}

// acctRefProc feeds the reference accounting algorithm. Raw byte images
// (conformance vectors) are parsed first; images that fail the HEC are
// invisible to the meter, exactly as they are at the bit level.
type acctRefProc struct{ rig *AcctRig }

func (a *acctRefProc) Init(ctx *netsim.Ctx) {}
func (a *acctRefProc) Arrival(ctx *netsim.Ctx, pkt *netsim.Packet, port int) {
	switch data := pkt.Data.(type) {
	case *atm.Cell:
		a.rig.Ref.Observe(data, ctx.Now())
	case []byte:
		var img [atm.CellBytes]byte
		copy(img[:], data)
		if cell, err := atm.Unmarshal(img); err == nil {
			a.rig.Ref.Observe(cell, ctx.Now())
		}
	default:
		panic(fmt.Sprintf("coverify: accounting reference got %T", pkt.Data))
	}
}
func (a *acctRefProc) Timer(ctx *netsim.Ctx, tag interface{}) {}

// InjectVector schedules a raw conformance vector image into both the
// hardware path and the reference model at the given simulation time
// (both sides of the comparison must see the same stimulus). Call before
// Run.
func (r *AcctRig) InjectVector(at sim.Time, img [atm.CellBytes]byte) {
	raw := make([]byte, atm.CellBytes)
	copy(raw, img[:])
	r.Net.Sched.At(at, func() {
		r.node.Inject(r.Net.NewPacket("vector", raw, atm.CellBytes*8), 0)
		r.refNode.Inject(r.Net.NewPacket("vector", raw, atm.CellBytes*8), 0)
	})
}

// Run executes the case study and drains the hardware.
func (r *AcctRig) Run(until sim.Time) error {
	if err := r.drive(until, 0, flushWindow); err != nil {
		return err
	}
	if reg := r.Cfg.Registry; reg != nil {
		reg.Gauge("coverify.exceptions").Set(float64(r.Exceptions))
	}
	// Metering outcomes accumulate in the hardware's counters during the
	// run; fold them into the event bins once, after the drain.
	r.coverEvent.Add("metered", r.DUT.Observed)
	for _, vc := range r.Cfg.VCs {
		if slot, ok := r.DUT.Slot(vc); ok {
			r.coverEvent.Add("clp1", uint64(r.DUT.Counter(slot, true)))
		}
	}
	r.coverEvent.Add("unregistered", r.DUT.Unregistered)
	r.coverEvent.Add("exception", r.Exceptions)
	return nil
}

// CounterMismatch is one discrepancy between the reference and hardware
// counters.
type CounterMismatch struct {
	VC    atm.VC
	Field string
	Ref   uint64
	DUT   uint64
}

// Compare checks every registered connection's counters (total cells,
// CLP1 cells) and the unregistered-cell count between the reference
// algorithm and the hardware.
func (r *AcctRig) Compare() []CounterMismatch {
	var out []CounterMismatch
	for _, vc := range r.Cfg.VCs {
		rec, _ := r.Ref.Record(vc)
		slot, ok := r.DUT.Slot(vc)
		if !ok {
			out = append(out, CounterMismatch{VC: vc, Field: "slot", Ref: 1, DUT: 0})
			continue
		}
		if got := uint64(r.DUT.Counter(slot, false)); got != rec.Cells {
			out = append(out, CounterMismatch{VC: vc, Field: "cells", Ref: rec.Cells, DUT: got})
		}
		if got := uint64(r.DUT.Counter(slot, true)); got != rec.CLP1Cells {
			out = append(out, CounterMismatch{VC: vc, Field: "clp1", Ref: rec.CLP1Cells, DUT: got})
		}
	}
	if r.Ref.Unregistered != r.DUT.Unregistered {
		out = append(out, CounterMismatch{Field: "unregistered", Ref: r.Ref.Unregistered, DUT: r.DUT.Unregistered})
	}
	return out
}

// Units returns the charging units per connection from the reference
// tariff applied to the hardware counters — the billing-level check.
func (r *AcctRig) Units(vc atm.VC) (ref, dutv uint64) {
	ref = r.Ref.Units(vc)
	slot, ok := r.DUT.Slot(vc)
	if !ok {
		return ref, 0
	}
	dutv = r.Cfg.Tariff.Units(uint64(r.DUT.Counter(slot, false)), uint64(r.DUT.Counter(slot, true)))
	return ref, dutv
}

// Report summarizes the case study.
func (r *AcctRig) Report() string {
	return fmt.Sprintf("offered=%d observed(dut)=%d unregistered(dut)=%d exceptions=%d mismatches=%d",
		r.Offered, r.DUT.Observed, r.DUT.Unregistered, r.Exceptions, len(r.Compare()))
}
