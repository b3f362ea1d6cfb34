package cosim

import (
	"fmt"
	"time"

	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// Response is one decoded answer from the hardware side.
type Response struct {
	Kind  ipc.Kind
	Value interface{}
	// HWTime is the hardware simulator's clock when the response was
	// produced; by the lag invariant it never exceeds the network time at
	// which the response is observed.
	HWTime sim.Time
	// NetTime is the network simulator's clock when the response was
	// picked up.
	NetTime sim.Time
	// Trace is the causal cell-trace ID the hardware side attached to the
	// response (0 = untraced); rigs use it to close the waterfall at the
	// comparison engine.
	Trace uint64
}

// InterfaceProcess is the CASTANET interface model on the network-
// simulator side (Fig. 2): a netsim.Processor that initializes the peer,
// converts abstract packets to time-stamped messages, keeps the peer's
// clock fed through periodic sync messages, and surfaces hardware
// responses back into the network simulation.
//
// Every message generated within one network instant (one δ-window
// boundary) is coalesced into a single coupling unit, flushed at the end
// of the instant: the conservative protocol has already proven all of
// them safe, so one round trip carries the whole window. The
// initialization message, and a sync with nothing buffered, travel at
// once as units of one.
type InterfaceProcess struct {
	// Coupling connects to the HDL entity or the hardware test board.
	Coupling Coupling
	// Registry supplies the conversion functions (abstract value <-> byte
	// payload) per message kind.
	Registry *mapping.Registry
	// Classify maps an arriving packet and its input port to a message
	// kind — one kind per input queue I_j of the entity. A nil Classify
	// sends every packet as KindData.
	Classify func(pkt netsim.Packet, port int) ipc.Kind
	// OnResponse consumes each decoded hardware response. When nil,
	// responses with a registered codec are re-injected as packets on
	// output port 0 (if connected).
	OnResponse func(ctx *netsim.Ctx, r Response)
	// OnError receives coupling failures. When nil, the default records
	// the first failure (see Err), halts the network scheduler, and stops
	// pushing messages — a broken coupling terminates the run gracefully
	// and surfaces through the rig's Run return value instead of
	// panicking.
	OnError func(err error)
	// SyncEvery is the period of time-update messages that keep the
	// hardware clock advancing through traffic pauses. Zero disables
	// periodic sync.
	SyncEvery sim.Duration
	// TraceOf, when non-nil, mints the causal trace ID of an outbound
	// packet (0 = untraced). IDs the observed cell tracker samples ride
	// the IPC envelope and record the ipc.tx hop.
	TraceOf func(pkt netsim.Packet, port int) uint64

	// Sent counts data messages pushed to the hardware side.
	Sent uint64
	// Responses counts decoded responses.
	Responses uint64

	// err is the first coupling failure recorded by the default error
	// handling; once set, the process stops driving the coupling.
	err error

	// pending holds the messages of the current network instant awaiting
	// the end-of-instant flush; flushArmed tracks the zero-delay flush
	// timer. Only ever non-empty within a single instant. one is the unit
	// an immediate message travels in (Exchange does not retain it).
	pending    []ipc.Message
	flushArmed bool
	one        [1]ipc.Message
	// later holds the responses stamped ahead of the network clock, in
	// (stamp, arrival) order, each with one respTag timer armed at its
	// stamp. The timers fire in that same order, so the response of a
	// firing timer is always the head.
	later sim.FIFO[Response]

	// Observability handles (nil until Observe; all nil-safe). The
	// process runs inside the sequential network scheduler, so plain field
	// access is fine.
	obsSent      *obs.Counter
	obsResponses *obs.Counter
	obsSyncs     *obs.Counter
	obsPending   *obs.Gauge
	obsBatches   *obs.Counter
	obsBatchSize *obs.Histogram
	obsFlushUs   *obs.Histogram
	tracer       *obs.Tracer
	cells        *obs.CellTracker // ipc.tx hops of traced cells
	recorder     *obs.Tracer      // flight-recorder notes on coupling failures
	coverBatch   *obs.CoverPoint
	phases       *obs.PhaseProfile // wall-time phase attribution (nil-safe)
}

// Observe routes the interface model's observability into run (nil:
// none):
//
//   - metrics: cosim.iface.{sent,responses,syncs,batches} counters, the
//     cosim.iface.net_pending gauge and the batch_size and flush_us
//     histograms;
//   - trace: coupling round-trips as spans on the coupling track, sync
//     messages as instants on the netsim track and the network
//     event-queue depth as counter samples;
//   - cells: the ipc.tx hop of traced cells (see TraceOf);
//   - flight recorder: a note per coupling failure;
//   - coverage: the δ-window batch-size band per flush under
//     "cosim.coupling", probing whether coupling windows ran both
//     near-empty and saturated;
//   - profile: packet encoding, response decoding and coupling transport
//     wall time (with nested HDL time subtracted — a direct coupling
//     executes the entity, and therefore the HDL kernel, inside Exchange).
func (p *InterfaceProcess) Observe(run *obs.Run) {
	if run == nil {
		return
	}
	p.tracer, p.cells, p.recorder = run.Tracer, run.Cells, run.Recorder
	p.phases = run.Profile.PhaseProf()
	if reg := run.Registry; reg != nil {
		p.obsSent = reg.Counter("cosim.iface.sent")
		p.obsResponses = reg.Counter("cosim.iface.responses")
		p.obsSyncs = reg.Counter("cosim.iface.syncs")
		p.obsPending = reg.Gauge("cosim.iface.net_pending")
		p.obsBatches = reg.Counter("cosim.iface.batches")
		p.obsBatchSize = reg.Histogram("cosim.iface.batch_size", 1, 2, 4, 8, 16, 32, 64, 128)
		p.obsFlushUs = reg.Histogram("cosim.iface.flush_us", 1, 5, 10, 50, 100, 500, 1000, 5000)
	}
	p.coverBatch = run.Cover.Group("cosim.coupling").Range("batch_cells", 1, 4, 16, 64)
}

// Err returns the coupling failure that terminated the run, or nil. Rigs
// surface it through their Run return value.
func (p *InterfaceProcess) Err() error { return p.err }

// KindData is the default message kind used when no Classify function is
// configured.
const KindData = ipc.KindUser

// Init implements netsim.Processor: it sends the initialization message
// (time stamp zero) and arms the sync ticker.
func (p *InterfaceProcess) Init(ctx *netsim.Ctx) {
	p.push(ctx, ipc.Message{Kind: ipc.KindInit, Time: ctx.Now()})
	if p.SyncEvery > 0 {
		ctx.SetTimer(p.SyncEvery, syncTag{})
	}
}

type syncTag struct{}

// flushTag marks the end-of-instant flush of the coalesced message
// window. It is armed with a zero-delay timer when the first message of
// an instant is buffered: the scheduler runs same-timestamp events in
// scheduling order, so the flush executes after every arrival of the
// instant, at the same network time.
type flushTag struct{}

// respTag schedules delivery of the head of the later queue: a response
// whose hardware time stamp lies ahead of the network clock (the DUT
// produced it inside its granted δ-window). Scheduling it as a future
// self event keeps the network domain causal: events may be generated for
// future times, never past ones (Fig. 3).
type respTag struct{}

// Arrival implements netsim.Processor: encode and forward one packet.
func (p *InterfaceProcess) Arrival(ctx *netsim.Ctx, pkt netsim.Packet, port int) {
	if p.err != nil {
		return
	}
	kind := KindData
	if p.Classify != nil {
		kind = p.Classify(pkt, port)
	}
	var encStart time.Time
	if p.phases != nil {
		encStart = time.Now()
	}
	data, err := p.Registry.Encode(kind, pkt.Data)
	if p.phases != nil {
		p.phases.Add(obs.PhaseEncode, time.Since(encStart))
	}
	if err != nil {
		p.fail(ctx, fmt.Errorf("cosim: encoding packet for kind %d: %w", kind, err))
		return
	}
	p.Sent++
	p.obsSent.Inc()
	msg := ipc.Message{Kind: kind, Time: ctx.Now(), Data: data}
	if p.TraceOf != nil {
		if id := p.TraceOf(pkt, port); p.cells.Sampled(id) {
			msg.Trace = id
			p.cells.Hop(id, obs.HopEnvelopeTx, int64(msg.Time))
		}
	}
	p.enqueue(ctx, msg)
}

// Timer implements netsim.Processor: periodic time updates and deferred
// response deliveries.
func (p *InterfaceProcess) Timer(ctx *netsim.Ctx, tag interface{}) {
	if p.err != nil {
		return
	}
	switch tag.(type) {
	case syncTag:
		p.obsSyncs.Inc()
		if p.tracer.Enabled() {
			p.tracer.Emit(obs.TrackNetsim, "sync", int64(ctx.Now()))
			p.tracer.Sample(obs.TrackNetsim, "net.sched.pending", int64(ctx.Now()), float64(ctx.Net().Sched.Pending()))
		}
		if p.obsPending != nil {
			p.obsPending.Set(float64(ctx.Net().Sched.Pending()))
		}
		// A sync is a natural window boundary: when messages of this
		// instant are already buffered it joins their batch, otherwise it
		// travels alone.
		if len(p.pending) > 0 {
			p.pending = append(p.pending, ipc.Message{Kind: ipc.KindSync, Time: ctx.Now()})
			p.flush(ctx)
		} else {
			p.push(ctx, ipc.Message{Kind: ipc.KindSync, Time: ctx.Now()})
		}
		ctx.SetTimer(p.SyncEvery, syncTag{})
	case flushTag:
		p.flush(ctx)
	case respTag:
		p.deliver(ctx, p.later.Pop())
	}
}

// enqueue buffers one outgoing message until the end of the instant.
func (p *InterfaceProcess) enqueue(ctx *netsim.Ctx, msg ipc.Message) {
	if p.err != nil {
		return
	}
	p.pending = append(p.pending, msg)
	if !p.flushArmed {
		p.flushArmed = true
		ctx.SetTimer(0, flushTag{})
	}
}

// flush ships the buffered window as one unit.
func (p *InterfaceProcess) flush(ctx *netsim.Ctx) {
	p.flushArmed = false
	msgs := p.pending
	p.pending = p.pending[:0]
	if len(msgs) > 0 {
		p.exchange(ctx, msgs, "batch flush", true)
	}
}

// push sends one message at once as a unit of one.
func (p *InterfaceProcess) push(ctx *netsim.Ctx, msg ipc.Message) {
	p.one[0] = msg
	p.exchange(ctx, p.one[:], kindSpanName(msg.Kind), false)
}

// exchange ships one unit and dispatches the responses it provoked. Only
// a coalesced window feeds the window-size metrics and coverage. A
// process whose coupling already failed is inert: the run is terminating.
func (p *InterfaceProcess) exchange(ctx *netsim.Ctx, msgs []ipc.Message, span string, coalesced bool) {
	if p.err != nil {
		return
	}
	traced := p.tracer.Enabled()
	if traced {
		p.tracer.Begin(obs.TrackCoupling, span, int64(ctx.Now()))
	}
	start := time.Now()
	hdlBefore := p.phases.Ns(obs.PhaseHDL)
	resps, err := p.Coupling.Exchange(msgs)
	if p.phases != nil {
		nested := p.phases.Ns(obs.PhaseHDL) - hdlBefore
		p.phases.AddNs(obs.PhaseTransport, int64(time.Since(start))-nested)
	}
	if coalesced {
		p.obsBatches.Inc()
		if p.obsBatchSize != nil {
			p.obsBatchSize.Observe(float64(len(msgs)))
		}
		p.coverBatch.Observe(int64(len(msgs)))
		if p.obsFlushUs != nil {
			p.obsFlushUs.Observe(float64(time.Since(start).Microseconds()))
		}
	}
	if traced {
		p.tracer.End(obs.TrackCoupling, span, int64(ctx.Now()))
	}
	if err != nil {
		p.fail(ctx, err)
		return
	}
	p.handleResponses(ctx, resps)
}

// handleResponses decodes and dispatches the responses one coupling
// operation provoked, in order.
func (p *InterfaceProcess) handleResponses(ctx *netsim.Ctx, resps []ipc.Message) {
	for _, rm := range resps {
		value, err := p.decode(rm)
		if err != nil {
			p.fail(ctx, err)
			continue
		}
		p.Responses++
		p.obsResponses.Inc()
		r := Response{Kind: rm.Kind, Value: value, HWTime: rm.Time, Trace: rm.Trace}
		if rm.Time > ctx.Now() {
			// The DUT produced this inside its δ-window, ahead of the
			// network clock: hand it back as a future event.
			p.deferResponse(ctx, r)
			continue
		}
		p.deliver(ctx, r)
	}
}

// deferResponse queues r for delivery at its hardware time stamp. The
// hardware clock never runs backwards, so r normally joins at the tail.
// A faulty link without the reliability envelope can hand over a delayed
// or duplicated reply late, stamped before queued responses; r then moves
// ahead of them, behind those with its own stamp, which keeps the queue in
// the order its timers fire.
func (p *InterfaceProcess) deferResponse(ctx *netsim.Ctx, r Response) {
	p.later.Push(r)
	for i := p.later.Len() - 1; i > 0 && p.later.At(i-1).HWTime > r.HWTime; i-- {
		*p.later.At(i) = *p.later.At(i - 1)
		*p.later.At(i - 1) = r
	}
	ctx.SetTimer(r.HWTime-ctx.Now(), respTag{})
}

// deliver dispatches one response at the current network time.
func (p *InterfaceProcess) deliver(ctx *netsim.Ctx, r Response) {
	r.NetTime = ctx.Now()
	if p.OnResponse != nil {
		p.OnResponse(ctx, r)
	} else if ctx.Connected(0) {
		ctx.Send(ctx.Net().NewPacket(r.Value, 0), 0)
	}
}

// kindSpanName names the coupling span for one message kind. The small
// kinds used by the protocol get stable names; user kinds are formatted.
func kindSpanName(k ipc.Kind) string {
	switch k {
	case ipc.KindInit:
		return "msg init"
	case ipc.KindSync:
		return "msg sync"
	}
	return fmt.Sprintf("msg k%d", k)
}

func (p *InterfaceProcess) decode(m ipc.Message) (interface{}, error) {
	if _, ok := p.Registry.Lookup(m.Kind); ok {
		if p.phases != nil {
			start := time.Now()
			v, err := p.Registry.Decode(m.Kind, m.Data)
			p.phases.Add(obs.PhaseDecode, time.Since(start))
			return v, err
		}
		return p.Registry.Decode(m.Kind, m.Data)
	}
	// Unregistered response kinds pass through as raw bytes.
	return m.Data, nil
}

// fail handles a coupling failure: user hook if configured, otherwise
// record the first error and stop the scheduler so the run terminates at
// the current simulation time with the error available via Err.
func (p *InterfaceProcess) fail(ctx *netsim.Ctx, err error) {
	now := int64(-1)
	if ctx != nil {
		now = int64(ctx.Now())
	}
	p.recorder.Note("iface", now, "coupling failure: %v", err)
	if p.OnError != nil {
		p.OnError(err)
		return
	}
	if p.err == nil {
		p.err = err
	}
	if ctx != nil {
		ctx.Net().Sched.Stop()
	}
}
