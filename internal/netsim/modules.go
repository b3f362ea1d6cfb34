package netsim

import (
	"castanet/internal/sim"
)

// Generator is the interval generator contract satisfied by the traffic
// models of package traffic: Next returns the delay until the next packet
// emission. It is defined here (consumer side) so netsim does not depend
// on traffic.
type Generator interface {
	Next(rng *sim.RNG) sim.Duration
}

// PacketFactory builds the payload for the i-th emitted packet.
type PacketFactory func(ctx *Ctx, i uint64) *Packet

// Source emits packets on port 0 with inter-departure times drawn from a
// Generator — the node-domain wrapper every OPNET traffic model gets.
type Source struct {
	Gen     Generator
	Make    PacketFactory
	Limit   uint64 // stop after this many packets; 0 = unlimited
	Emitted uint64

	rng *sim.RNG
}

// Init implements Processor.
func (s *Source) Init(ctx *Ctx) {
	s.rng = ctx.RNG().Split()
	s.arm(ctx)
}

func (s *Source) arm(ctx *Ctx) {
	if s.Limit > 0 && s.Emitted >= s.Limit {
		return
	}
	ctx.SetTimer(s.Gen.Next(s.rng), nil)
}

// Arrival implements Processor; sources have no inputs.
func (s *Source) Arrival(ctx *Ctx, pkt *Packet, port int) {}

// Timer implements Processor: emit one packet and re-arm.
func (s *Source) Timer(ctx *Ctx, tag interface{}) {
	pkt := s.Make(ctx, s.Emitted)
	s.Emitted++
	ctx.Send(pkt, 0)
	s.arm(ctx)
}

// Queue is a FIFO queue with a single server — the canonical node-domain
// queueing module. Packets arriving on any port enter the queue; the
// server forwards them on port 0 after a service time of Size/RateBps
// seconds (or a fixed ServiceTime). Packets arriving to a full queue are
// dropped.
type Queue struct {
	Capacity    int          // max queued packets (0 = unbounded)
	RateBps     float64      // service rate applied to pkt.Size
	ServiceTime sim.Duration // fixed service time when RateBps == 0

	fifo    []*Packet
	busy    bool
	Dropped uint64
	Served  uint64
}

// Init implements Processor.
func (q *Queue) Init(ctx *Ctx) {}

// Arrival implements Processor.
func (q *Queue) Arrival(ctx *Ctx, pkt *Packet, port int) {
	if q.Capacity > 0 && len(q.fifo) >= q.Capacity {
		q.Dropped++
		return
	}
	q.fifo = append(q.fifo, pkt)
	if !q.busy {
		q.startService(ctx)
	}
}

func (q *Queue) startService(ctx *Ctx) {
	pkt := q.fifo[0]
	q.fifo = q.fifo[1:]
	q.busy = true
	d := q.ServiceTime
	if q.RateBps > 0 {
		d = sim.FromSeconds(float64(pkt.Size) / q.RateBps)
	}
	ctx.SetTimer(d, pkt)
}

// Timer implements Processor: service completion.
func (q *Queue) Timer(ctx *Ctx, tag interface{}) {
	pkt := tag.(*Packet)
	q.Served++
	ctx.Send(pkt, 0)
	if len(q.fifo) > 0 {
		q.startService(ctx)
	} else {
		q.busy = false
	}
}

// Sink absorbs packets and records end-to-end delay statistics, the
// standard measurement endpoint of network-level test benches.
type Sink struct {
	Received uint64
	Delay    sim.Accumulator // seconds

	// OnPacket, when set, observes every absorbed packet.
	OnPacket func(ctx *Ctx, pkt *Packet, port int)
}

// Init implements Processor.
func (s *Sink) Init(ctx *Ctx) {}

// Arrival implements Processor.
func (s *Sink) Arrival(ctx *Ctx, pkt *Packet, port int) {
	s.Received++
	s.Delay.Add((ctx.Now() - pkt.Created).Seconds())
	if s.OnPacket != nil {
		s.OnPacket(ctx, pkt, port)
	}
}

// Timer implements Processor.
func (s *Sink) Timer(ctx *Ctx, tag interface{}) {}

// Func is a Processor assembled from closures, convenient for small glue
// processes in examples and tests.
type Func struct {
	OnInit    func(ctx *Ctx)
	OnArrival func(ctx *Ctx, pkt *Packet, port int)
	OnTimer   func(ctx *Ctx, tag interface{})
}

// Init implements Processor.
func (f *Func) Init(ctx *Ctx) {
	if f.OnInit != nil {
		f.OnInit(ctx)
	}
}

// Arrival implements Processor.
func (f *Func) Arrival(ctx *Ctx, pkt *Packet, port int) {
	if f.OnArrival != nil {
		f.OnArrival(ctx, pkt, port)
	}
}

// Timer implements Processor.
func (f *Func) Timer(ctx *Ctx, tag interface{}) {
	if f.OnTimer != nil {
		f.OnTimer(ctx, tag)
	}
}
