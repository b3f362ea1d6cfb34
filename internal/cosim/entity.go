// Package cosim is CASTANET's core: the coupling between the
// discrete-event network simulator (package netsim, standing in for OPNET)
// and the event-driven HDL simulator (package hdl, standing in for
// Synopsys VSS) or the hardware test board (package board).
//
// The coupling follows §3 of the paper:
//
//   - An InterfaceProcess on the network-simulator side initializes the
//     peer engine and exchanges time-stamped messages.
//   - An Entity on the HDL side receives those messages, performs signal
//     conditioning through the abstraction interfaces of package mapping,
//     and returns the device-under-test responses.
//   - Synchronization is conservative (§3.1): the HDL simulator may only
//     process events strictly older than the latest time stamp received
//     from the network simulator, then advances through a bounded timing
//     window derived from the per-message-type processing delays δ_j.
//     The HDL clock therefore always lags the network clock and no
//     rollback is ever needed; deadlock is impossible because every
//     message grants a new window.
package cosim

import (
	"fmt"
	"sort"
	"time"

	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// ApplyFunc drives one received message into the hardware model (signal
// conditioning): typically it decodes the payload and enqueues it on a
// mapping.CellPortWriter or pokes configuration registers.
type ApplyFunc func(e *Entity, msg ipc.Message) error

// inQueue is one time-stamped input message queue I_j of §3.1.
type inQueue struct {
	kind  ipc.Kind
	delta sim.Duration // δ_j: processing window granted per message
	apply ApplyFunc
	msgs  sim.FIFO[ipc.Message]
	last  sim.Time   // newest stamp seen for this queue
	depth *obs.Gauge // queue occupancy (nil until Observe)
}

// Entity is the co-simulation entity instantiated inside the HDL
// simulation (Fig. 2). It owns the synchronization state and the outbox of
// responses travelling back to the network simulator.
type Entity struct {
	HDL *hdl.Simulator

	queues []*inQueue
	byKind map[ipc.Kind]*inQueue

	tcur sim.Time // current co-simulation time = newest stamp received
	gmin sim.Time // global causality lower bound

	// outbox collects the responses of the unit being delivered. spare is
	// the array TakeOutbox handed out last; the next TakeOutbox reuses it,
	// so the two alternate and steady-state delivery allocates neither.
	outbox, spare []ipc.Message

	// Statistics.
	Received        uint64 // messages delivered
	Applied         uint64 // data messages driven into the model
	Windows         uint64 // timing windows executed
	CausalityErrors uint64 // messages arriving in the simulator's past

	// MaxLag records the largest observed gap between an incoming message
	// stamp and the hardware clock — how far the hardware trails the
	// network simulator under the conservative protocol.
	MaxLag sim.Duration

	// FreezeLagStats suspends MaxLag recording; the end-of-run drain sets
	// it so the artificial final fast-forward does not dominate the
	// steady-state figure.
	FreezeLagStats bool

	// Observability handles (nil until Observe; all nil-safe). The
	// entity runs single-threaded inside the simulation loop, so plain
	// field access is fine.
	obsReceived  *obs.Counter
	obsApplied   *obs.Counter
	obsWindows   *obs.Counter
	obsCausality *obs.Counter
	obsLag       *obs.Gauge
	obsLagHist   *obs.Histogram
	obsReg       *obs.Registry // for per-kind queue gauges declared after Observe
	tracer       *obs.Tracer
	cells        *obs.CellTracker // entity.rx hops of traced messages
	recorder     *obs.Tracer      // flight-recorder notes on protocol anomalies
	coverLag     *obs.CoverPoint
	phases       *obs.PhaseProfile // wall-time phase attribution (nil-safe)
}

// lagHistBoundsPS are the lag-histogram bucket bounds in picoseconds:
// 1 ns … 1 ms in decades, spanning sub-cycle jitter up to a stalled link.
var lagHistBoundsPS = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// Observe routes the entity's observability into run (nil: none):
//
//   - metrics: cosim.entity.{received,applied,windows,causality_errors}
//     counters, cosim.entity.lag_ps (gauge, last observed stamp-vs-HDL
//     lag), cosim.entity.lag_hist_ps (histogram of the same lag) and a
//     cosim.queue.k<kind>.depth gauge per declared input queue;
//   - trace: one δ-window span per granted window on the hdl track;
//   - cells: the entity.rx hop of traced messages;
//   - flight recorder: notes on causality violations and undeclared kinds;
//   - coverage: a picosecond lag band per delivered stamp under
//     "cosim.sync", probing whether both tight and slack synchronization
//     windows were exercised;
//   - profile: every HDL execution window's wall time, as PhaseHDL.
//
// Call before or after Input declarations; queues declared later pick up
// their depth gauge automatically.
func (e *Entity) Observe(run *obs.Run) {
	if run == nil {
		return
	}
	e.tracer, e.cells, e.recorder = run.Tracer, run.Cells, run.Recorder
	e.phases = run.Profile.PhaseProf()
	if reg := run.Registry; reg != nil {
		e.obsReg = reg
		e.obsReceived = reg.Counter("cosim.entity.received")
		e.obsApplied = reg.Counter("cosim.entity.applied")
		e.obsWindows = reg.Counter("cosim.entity.windows")
		e.obsCausality = reg.Counter("cosim.entity.causality_errors")
		e.obsLag = reg.Gauge("cosim.entity.lag_ps")
		e.obsLagHist = reg.Histogram("cosim.entity.lag_hist_ps", lagHistBoundsPS...)
		for _, q := range e.queues {
			q.depth = reg.Gauge(fmt.Sprintf("cosim.queue.k%d.depth", q.kind))
		}
	}
	e.coverLag = run.Cover.Group("cosim.sync").Range("lag_ps", 0, 1000000, 10000000, 100000000)
}

// NewEntity wraps an HDL simulator. Input queues are declared with Input
// before the first Deliver.
func NewEntity(h *hdl.Simulator) *Entity {
	return &Entity{HDL: h, byKind: make(map[ipc.Kind]*inQueue)}
}

// Input declares an input message type: its queue, its processing delay
// δ (the maximum number of simulated time the hardware needs to consume
// one such message — clock cycles × period), and the signal-conditioning
// function.
func (e *Entity) Input(kind ipc.Kind, delta sim.Duration, apply ApplyFunc) {
	if _, dup := e.byKind[kind]; dup {
		panic(fmt.Sprintf("cosim: input kind %d declared twice", kind))
	}
	if delta < 0 {
		panic("cosim: negative processing delay")
	}
	q := &inQueue{kind: kind, delta: delta, apply: apply}
	if e.obsReg != nil {
		q.depth = e.obsReg.Gauge(fmt.Sprintf("cosim.queue.k%d.depth", kind))
	}
	e.byKind[kind] = q
	e.queues = append(e.queues, q)
	sort.Slice(e.queues, func(i, j int) bool { return e.queues[i].kind < e.queues[j].kind })
}

// minDelta returns the smallest processing delay over all declared input
// types — the window granted after applying a batch of messages (§3.1:
// "the local simulation time is advanced by the minimum of each message
// type's processing delay").
func (e *Entity) minDelta() sim.Duration {
	if len(e.queues) == 0 {
		return 0
	}
	min := e.queues[0].delta
	for _, q := range e.queues[1:] {
		if q.delta < min {
			min = q.delta
		}
	}
	return min
}

// Emit queues a response message stamped with the current HDL time.
// Device-output callbacks (e.g. a CellPortReader's OnCell) call it.
func (e *Entity) Emit(kind ipc.Kind, data []byte) {
	e.EmitTraced(kind, data, 0)
}

// EmitTraced queues a response carrying a causal trace ID, so the
// response leg of a traced cell's journey stays linked through the
// coupling (0 behaves like Emit).
func (e *Entity) EmitTraced(kind ipc.Kind, data []byte, trace uint64) {
	e.outbox = append(e.outbox, ipc.Message{Kind: kind, Time: e.HDL.Now(), Data: data, Trace: trace})
}

// TakeOutbox returns the accumulated responses and starts an empty
// outbox. The returned slice is valid until the next TakeOutbox, which
// reuses its array; both couplings are done with it by then (Direct's
// caller holds it until its next Exchange, EntityServer copies it into
// its reply at once).
func (e *Entity) TakeOutbox() []ipc.Message {
	out := e.outbox
	clear(e.spare)
	e.outbox = e.spare[:0]
	e.spare = out
	return out
}

// deliverUnit delivers msgs in order. A mid-unit failure discards the
// half-built outbox, per the coupling's error contract.
func (e *Entity) deliverUnit(msgs []ipc.Message) error {
	for _, m := range msgs {
		if err := e.Deliver(m); err != nil {
			clear(e.outbox)
			e.outbox = e.outbox[:0]
			return err
		}
	}
	return nil
}

// ErrCausality is wrapped by Deliver when a message is stamped before an
// already granted horizon — the Fig.-3 error the protocol exists to
// prevent.
var ErrCausality = fmt.Errorf("cosim: causality violation")

// Deliver feeds one time-stamped message into the entity, advancing the
// HDL simulation according to the conservative protocol:
//
//  1. A stamp in the past of the granted horizon is a causality error.
//  2. A newer stamp t_k lets the HDL simulator process every event
//     strictly older than t_k, then sets the co-simulation time to t_k.
//  3. Data messages join their queue I_j; every batch of queue heads that
//     the global bound proves complete is applied, after which the HDL
//     simulator runs through a window of min_j δ_j to process it.
func (e *Entity) Deliver(msg ipc.Message) error {
	e.Received++
	e.obsReceived.Inc()
	if msg.Time < e.gmin {
		e.CausalityErrors++
		e.obsCausality.Inc()
		e.recorder.NoteCell(msg.Trace, "entity", int64(msg.Time),
			"causality violation: kind %d stamped before horizon %v", msg.Kind, e.gmin)
		return fmt.Errorf("%w: stamp %v before horizon %v", ErrCausality, msg.Time, e.gmin)
	}
	if msg.Trace != 0 {
		e.cells.Hop(msg.Trace, obs.HopEntityRx, int64(msg.Time))
	}
	// Record how far the hardware clock trails the incoming network time
	// stamp before the new window is granted — the lag the conservative
	// protocol maintains (bounded by the message/sync interval).
	lag := msg.Time - e.HDL.Now()
	if lag > e.MaxLag && !e.FreezeLagStats {
		e.MaxLag = lag
	}
	if e.obsLag != nil && !e.FreezeLagStats {
		e.obsLag.Set(float64(lag))
		e.obsLagHist.Observe(float64(lag))
	}
	if !e.FreezeLagStats {
		e.coverLag.Observe(int64(lag))
	}
	if msg.Time > e.tcur {
		if err := e.runBefore(msg.Time); err != nil {
			return err
		}
		e.tcur = msg.Time
	}
	e.gmin = msg.Time
	switch msg.Kind {
	case ipc.KindSync:
		// Pure time update: no data, the horizon advance above is all.
		return nil
	case ipc.KindInit:
		// Initialization is handled by the coupling setup; accept silently
		// so remote servers can log it.
		return nil
	}
	q, ok := e.byKind[msg.Kind]
	if !ok {
		e.recorder.NoteCell(msg.Trace, "entity", int64(msg.Time),
			"message for undeclared input kind %d", msg.Kind)
		return fmt.Errorf("cosim: message for undeclared input kind %d", msg.Kind)
	}
	q.msgs.Push(msg)
	q.last = msg.Time
	q.depth.Set(float64(q.msgs.Len()))
	return e.drainReady()
}

// runBefore executes HDL events with time stamps strictly smaller than t
// (§3.1: "allowed to process all events with a time stamp smaller than
// t_k, but not equal").
func (e *Entity) runBefore(t sim.Time) error {
	if e.phases != nil {
		defer e.phaseHDL(time.Now())
	}
	return e.HDL.RunBefore(t)
}

// runThrough executes HDL events up to and including t.
func (e *Entity) runThrough(t sim.Time) error {
	if e.phases != nil {
		defer e.phaseHDL(time.Now())
	}
	return e.HDL.RunThrough(t)
}

// phaseHDL attributes the elapsed wall time since start to the HDL phase.
func (e *Entity) phaseHDL(start time.Time) {
	e.phases.Add(obs.PhaseHDL, time.Since(start))
}

// drainReady applies every queued message whose stamp the global bound
// has proven complete (all queues have seen this stamp or newer), batch by
// batch in stamp order, granting a δ-window after each batch.
func (e *Entity) drainReady() error {
	for {
		// Earliest queued stamp.
		var t sim.Time = sim.Never
		for _, q := range e.queues {
			if q.msgs.Len() > 0 && q.msgs.Head().Time < t {
				t = q.msgs.Head().Time
			}
		}
		if t == sim.Never {
			return nil
		}
		if t > e.gmin {
			// Cannot happen with a single FIFO channel (stamps are
			// monotone), kept for multi-channel couplings: wait for the
			// bound to advance.
			return nil
		}
		// Apply every head message with stamp t, in kind order, FIFO
		// within a queue.
		for _, q := range e.queues {
			popped := false
			for q.msgs.Len() > 0 && q.msgs.Head().Time == t {
				m := q.msgs.Pop()
				popped = true
				if q.apply != nil {
					if err := q.apply(e, m); err != nil {
						return err
					}
				}
				e.Applied++
				e.obsApplied.Inc()
			}
			if popped {
				q.depth.Set(float64(q.msgs.Len()))
			}
		}
		// Grant the processing window.
		e.Windows++
		e.obsWindows.Inc()
		end := t + e.minDelta()
		// The span covers hardware time actually executed: when stimuli
		// arrive closer together than δ the nominal windows overlap, but
		// the kernel never regresses, so clamp to HDL.Now() on both ends
		// to keep the track's spans monotone.
		begin := max(t, e.HDL.Now())
		e.tracer.Begin(obs.TrackHDL, "delta-window", int64(begin))
		err := e.runThrough(end)
		e.tracer.End(obs.TrackHDL, "delta-window", int64(max(begin, e.HDL.Now())))
		if err != nil {
			return err
		}
	}
}

// LagInvariantHolds reports whether the HDL clock is at or behind the
// co-simulation horizon plus one processing window — the paper's "the
// simulated time of the VHDL simulator always lags behind OPNET's
// simulated time" property.
func (e *Entity) LagInvariantHolds() bool {
	return e.HDL.Now() <= e.tcur+e.minDelta()
}
