package refmodel

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/netsim"
	"castanet/internal/sim"
)

// PolicerRef is the algorithmic reference of the UPC unit: per-connection
// GCRA at the network level of abstraction, with the same
// discard-or-tag policy as the hardware.
type PolicerRef struct {
	// Tag selects tagging instead of discarding for violators.
	Tag bool

	policers map[atm.VC]*atm.GCRA

	Conforming    uint64
	NonConforming uint64
	Tagged        uint64
	Discarded     uint64
	Passed        uint64

	// OnForward observes every cell the policer lets through.
	OnForward func(ctx *netsim.Ctx, c *atm.Cell)
}

// NewPolicerRef returns an empty reference policer.
func NewPolicerRef(tag bool) *PolicerRef {
	return &PolicerRef{Tag: tag, policers: make(map[atm.VC]*atm.GCRA)}
}

// Contract installs a policing contract in time units.
func (p *PolicerRef) Contract(vc atm.VC, peakInterval, tau sim.Duration) {
	p.policers[vc] = &atm.GCRA{T: peakInterval, Tau: tau}
}

// Init implements netsim.Processor.
func (p *PolicerRef) Init(ctx *netsim.Ctx) {}

// Arrival implements netsim.Processor.
func (p *PolicerRef) Arrival(ctx *netsim.Ctx, pkt netsim.Packet, port int) {
	c, ok := pkt.Data.(*atm.Cell)
	if !ok {
		panic(fmt.Sprintf("refmodel: PolicerRef got %T", pkt.Data))
	}
	if c.IsIdle() || c.IsUnassigned() {
		return
	}
	g, registered := p.policers[c.VC()]
	if !registered {
		p.Passed++
		p.forward(ctx, c, pkt.Size)
		return
	}
	if g.Arrive(ctx.Now()) {
		p.Conforming++
		p.forward(ctx, c, pkt.Size)
		return
	}
	p.NonConforming++
	if p.Tag {
		if c.CLP == 1 {
			p.Discarded++
			return
		}
		tagged := c.Clone()
		tagged.CLP = 1
		p.Tagged++
		p.forward(ctx, tagged, pkt.Size)
		return
	}
	p.Discarded++
}

func (p *PolicerRef) forward(ctx *netsim.Ctx, c *atm.Cell, size int) {
	if p.OnForward != nil {
		p.OnForward(ctx, c)
	}
	if ctx.Connected(0) {
		ctx.Send(ctx.Net().NewPacket(c, size), 0)
	}
}

// Timer implements netsim.Processor.
func (p *PolicerRef) Timer(ctx *netsim.Ctx, tag interface{}) {}
