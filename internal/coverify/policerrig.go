package coverify

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/dut"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// SlotAligned wraps a traffic model so every inter-arrival interval is a
// whole number of hardware clock cycles — the physical reality of a
// slotted ATM line, and the condition under which the network-level GCRA
// reference and the cycle-counting UPC hardware make identical
// conformance decisions.
type SlotAligned struct {
	Model  traffic.Model
	Period sim.Duration
}

// Next implements traffic.Model.
func (s SlotAligned) Next(rng *sim.RNG) sim.Duration {
	d := s.Model.Next(rng)
	q := (d + s.Period/2) / s.Period * s.Period
	if q < s.Period {
		q = s.Period
	}
	return q
}

// PolicerContract is one UPC contract of the rig.
type PolicerContract struct {
	VC           atm.VC
	PeakInterval sim.Duration // contracted minimum cell spacing
	Tau          sim.Duration // cell delay variation tolerance
}

// PolicerRigConfig parameterizes the UPC co-verification.
type PolicerRigConfig struct {
	Seed      uint64
	Tag       bool // tag instead of discard
	Contracts []PolicerContract
	Sources   []PolicerSource
	// Run is the observation handle (see SwitchRigConfig.Run). Its Cover
	// also receives the UPC action bins under "coverify.policer", folded
	// once from the DUT's end-of-run counters.
	obs.Run
}

// PolicerSource is one offered stream.
type PolicerSource struct {
	Model traffic.Model
	VC    atm.VC
	Cells uint64
}

// PolicerRig verifies the UPC hardware against the GCRA reference: both
// see the same slot-aligned cell stream; the comparator checks that
// exactly the same cells emerge, with identical CLP tagging.
type PolicerRig struct {
	Harness
	Cfg PolicerRigConfig

	DUT *dut.Policer
	Ref *refmodel.PolicerRef

	coverAction *obs.CoverPoint
}

// NewPolicerRig elaborates the UPC co-verification environment.
func NewPolicerRig(cfg PolicerRigConfig) *PolicerRig {
	r := &PolicerRig{Cfg: cfg}
	r.coverAction = cfg.Cover.Group("coverify.policer").Point("action",
		"conforming", "nonconforming", "tagged", "discarded")

	r.kernel(SwitchRigConfig{
		Seed: cfg.Seed, SyncEvery: syncEvery, Run: cfg.Run,
		// UPC hardware is timing-sensitive: its conformance decisions
		// depend on exact cell spacing. A large processing window δ would
		// let the hardware clock overrun later cells' time stamps,
		// delaying their physical transmission and perturbing the very
		// inter-arrival gaps under test. One clock of lookahead keeps the
		// coupling cycle-faithful (arrivals are at least one slot apart).
		Delta: clockPeriod,
	})
	r.DUT = dut.NewPolicer(r.HDL, r.clk, 64)
	if cfg.Tag {
		r.DUT.Action = dut.PolicerTag
	}
	r.Ref = refmodel.NewPolicerRef(cfg.Tag)
	// The policer's coverage has no comparison-verdict group.
	r.compareTo(nil)
	r.Ref.OnForward = func(ctx *netsim.Ctx, c *atm.Cell) { r.Cmp.Expect(0, c) }
	for _, ct := range cfg.Contracts {
		if err := r.DUT.ContractFor(ct.VC, ct.PeakInterval, ct.Tau, clockPeriod); err != nil {
			panic(err)
		}
		r.Ref.Contract(ct.VC, ct.PeakInterval, ct.Tau)
	}
	r.entity()
	r.writer("castanet_tx", 0, r.DUT.In)
	r.reader("castanet_rx", 0, r.DUT.Out)

	r.network(nil, nil)
	r.attach()
	refNode := r.Net.Node("refupc", r.Ref)
	// The reference policer must observe the cell stream at the same
	// reference point as the hardware: after the physical line has
	// serialized it (one cell per 53 byte clocks). Without this line
	// model, conformance decisions near the GCRA boundary would differ
	// between the instantaneous network view and the bit-level view —
	// not a hardware bug, a mis-placed observation point.
	lineNode := r.Net.Node("line", &netsim.Queue{ServiceTime: atm.CellBytes * clockPeriod})
	r.Net.Connect(lineNode, 0, refNode, 0, netsim.LinkParams{})
	for i, s := range cfg.Sources {
		r.feed(i, SlotAligned{Model: s.Model, Period: clockPeriod}, s.Cells,
			func(ctx *netsim.Ctx, k uint64) *atm.Cell { return r.newCell(ctx, s.VC, 0) },
			lineNode, i, 0)
	}
	return r
}

// Run executes the verification and drains the pipeline.
func (r *PolicerRig) Run(until sim.Time) error {
	if err := r.drive(until, 0, flushWindow); err != nil {
		return err
	}
	// UPC decisions accumulate in the DUT's diagnostic registers during
	// the run; fold them into the action bins once, after the drain.
	r.coverAction.Add("conforming", r.DUT.Conforming)
	r.coverAction.Add("nonconforming", r.DUT.NonConforming)
	r.coverAction.Add("tagged", r.DUT.Tagged)
	r.coverAction.Add("discarded", r.DUT.Discarded)
	return nil
}

// Report summarizes the UPC comparison.
func (r *PolicerRig) Report() string {
	return fmt.Sprintf("offered=%d ref[conf=%d viol=%d] dut[conf=%d viol=%d tag=%d drop=%d] matched=%d bad=%d outstanding=%d",
		r.Offered, r.Ref.Conforming, r.Ref.NonConforming,
		r.DUT.Conforming, r.DUT.NonConforming, r.DUT.Tagged, r.DUT.Discarded,
		r.Cmp.Matched, len(r.Cmp.Mismatches()), len(r.Cmp.Outstanding()))
}
