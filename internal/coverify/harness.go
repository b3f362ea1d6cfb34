package coverify

import (
	"fmt"
	"time"

	"castanet/internal/atm"
	"castanet/internal/cosim"
	"castanet/internal/dut"
	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

const (
	// clockPeriod is every rig's HDL byte clock: 50 ns, the 20 MHz line
	// clock of the paper's switch.
	clockPeriod = 50 * sim.Nanosecond
	// syncEvery is the default periodic time-update interval.
	syncEvery = 50 * sim.Microsecond
	// flushWindow is the final hardware window the policer and accounting
	// rigs grant past the network horizon: 100 cell times.
	flushWindow = 100 * atm.CellBytes * clockPeriod
)

// Harness is the co-verification skeleton every rig is built on (Fig. 1):
// the HDL kernel with its clock and co-simulation entity, the port
// conditioning between entity messages and the DUT's byte-serial cell
// ports, the coupling, the network simulator with the interface process
// and the traffic fan-out, and the observability every rig publishes
// (metrics, trace, coverage, profile, sim rates). A rig supplies only its
// DUT, its reference model and comparator, and how it builds cells from
// its traffic; see DESIGN.md §20.
//
// The kernel half (kernel, entity, writer, reader) serves the
// HDL rigs, the network half (network, attach, feed, drive) the rigs with
// a test bench in the network simulator. The calls elaborate in the order
// a rig makes them, so each rig keeps its signal, process and node order.
type Harness struct {
	HDL    *hdl.Simulator
	Entity *cosim.Entity
	Net    *netsim.Network
	Iface  *cosim.InterfaceProcess
	// Cmp checks every DUT response cell against the reference model's
	// expectations (nil for a rig without one).
	Cmp *refmodel.Comparator
	// RelClient is the client-side reliability envelope of a Remote
	// coupling (nil unless Reliable is set); its Stats expose retransmit
	// counts.
	RelClient *ipc.ReliableTransport
	// Offered counts cells injected into the environment.
	Offered uint64

	cfg      SwitchRigConfig
	clk      *hdl.Signal
	registry *mapping.Registry
	node     *netsim.Node // the interface process, node "castanet"
	// countFlushLag keeps the final flush window's lag in the entity's
	// statistics; every rig but the accounting rig freezes them first.
	countFlushLag bool

	coverMatch, coverMismatch *obs.CoverHit

	transport ipc.Transport
	srvDone   chan error
	closeErr  error
	// runWall accumulates the wall-clock time spent driving the run,
	// feeding the sim-rate gauges and the profile's whole-run total
	// (telemetry only — wall time never enters a deterministic artifact).
	runWall time.Duration
}

// switchDefaults fills the unset fields of a switch-family configuration.
func switchDefaults(cfg SwitchRigConfig) SwitchRigConfig {
	if cfg.Delta == 0 {
		cfg.Delta = 64 * clockPeriod
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = syncEvery
	}
	if cfg.Table == nil {
		cfg.Table = DefaultTable()
	}
	if cfg.Switch == (dut.SwitchConfig{}) {
		cfg.Switch = dut.DefaultSwitchConfig()
	}
	return cfg
}

// kernel elaborates the HDL simulator and its byte clock "clk". The
// harness reads the coupling fields and the observation handle of cfg.
func (h *Harness) kernel(cfg SwitchRigConfig) {
	h.cfg = cfg
	h.HDL = hdl.New()
	h.HDL.Instrument(cfg.Registry, "hdl.sim")
	if cfg.Profile != nil {
		cfg.Profile.AttachActivitySource(h.HDL.EnableProfile().Snapshot)
	}
	h.clk = h.HDL.Bit("clk", hdl.U)
	h.HDL.Clock(h.clk, clockPeriod)
}

// entity wraps the kernel in the co-simulation entity the coupling talks
// to.
func (h *Harness) entity() {
	h.Entity = cosim.NewEntity(h.HDL)
	h.Entity.Observe(&h.cfg.Run)
	h.registry = mapping.NewRegistry()
}

// writer conditions DUT input port in: the cell image of every
// KindCellIn(p) message is serialized onto the port's byte lanes.
func (h *Harness) writer(name string, p int, in dut.CellPort) *mapping.CellPortWriter {
	w := mapping.NewCellPortWriter(h.HDL, name, h.clk, in.Data, in.Sync)
	if cells := h.cfg.Cells; cells.Enabled() {
		// Only a cell whose message carried a trace ID records the
		// hdl.commit hop; raw images (conformance vectors) carry none.
		w.OnCellStart = func(trace uint64) {
			cells.Hop(trace, obs.HopHDLCommit, int64(h.HDL.Now()))
		}
	}
	h.Entity.Input(KindCellIn(p), h.cfg.Delta, func(e *cosim.Entity, msg ipc.Message) error {
		img, err := atm.ParseImage(msg.Data)
		if err != nil {
			return err
		}
		w.Enqueue(img, msg.Trace)
		return nil
	})
	h.registry.Register(KindCellIn(p), mapping.CellCodec{})
	return w
}

// reader conditions DUT output port out: the image of every cell the DUT
// emits there returns as a KindCellOut(p) response.
func (h *Harness) reader(name string, p int, out dut.CellPort) {
	rd := mapping.NewCellPortReader(h.HDL, name, h.clk, out.Data, out.Sync)
	rd.SkipIdle = true
	rd.OnCell = func(img [atm.CellBytes]byte, _ atm.Header) {
		if id := uint64(atm.Seq(img)) + 1; h.cfg.Cells.Sampled(id) {
			h.Entity.EmitTraced(KindCellOut(p), img[:], id)
		} else {
			h.Entity.Emit(KindCellOut(p), img[:])
		}
	}
	h.registry.Register(KindCellOut(p), mapping.CellCodec{})
}

// couple connects the interface process to the entity: direct calls, or
// with Remote an in-process socket pair to an EntityServer goroutine. The
// client stack is Reliable(Fault(pipe)): faults are injected under the
// envelope, so the envelope must recover them.
func (h *Harness) couple() cosim.Coupling {
	cfg := h.cfg
	if !cfg.Remote {
		return &cosim.Direct{Entity: h.Entity}
	}
	a, b := ipc.Pipe(64)
	var ct, st ipc.Transport = a, b
	if cfg.Fault != nil {
		f := ipc.NewFault(a, *cfg.Fault)
		f.Instrument(cfg.Registry, "ipc.fault")
		ct = f
	}
	if cfg.Reliable != nil {
		h.RelClient = ipc.NewReliable(ct, *cfg.Reliable)
		h.RelClient.Instrument(cfg.Registry, "ipc.reliable")
		ct = h.RelClient
		st = ipc.NewReliable(b, *cfg.Reliable)
	}
	h.transport = ct
	srv := &cosim.EntityServer{Entity: h.Entity, Transport: st, Watchdog: cfg.Deadline}
	h.srvDone = make(chan error, 1)
	go func() { h.srvDone <- srv.Serve() }()
	return &cosim.Remote{Transport: ct, Deadline: cfg.Deadline}
}

// network elaborates the network simulator and the interface process that
// feeds the hardware through coupling (nil: couple to the entity).
// classify maps a packet to its message kind; nil sends every packet on
// its input port p as KindCellIn(p).
func (h *Harness) network(coupling cosim.Coupling, classify func(*netsim.Packet, int) ipc.Kind) {
	cfg := h.cfg
	if coupling == nil {
		coupling = h.couple()
	}
	if classify == nil {
		classify = func(pkt *netsim.Packet, port int) ipc.Kind { return KindCellIn(port) }
	}
	h.Net = netsim.New(cfg.Seed)
	h.Net.Sched.Instrument(cfg.Registry, "net.sched")
	h.Iface = &cosim.InterfaceProcess{
		Coupling:  coupling,
		Registry:  h.registry,
		SyncEvery: cfg.SyncEvery,
		Classify:  classify,
		TraceOf: func(pkt *netsim.Packet, port int) uint64 {
			if c, ok := pkt.Data.(*atm.Cell); ok {
				return uint64(c.Seq) + 1
			}
			return 0
		},
		OnResponse: func(ctx *netsim.Ctx, resp cosim.Response) { h.respond(resp) },
	}
	h.Iface.Observe(&h.cfg.Run)
}

// attach places the interface process in the network as node "castanet".
func (h *Harness) attach() *netsim.Node {
	h.node = h.Net.Node("castanet", h.Iface)
	return h.node
}

// compareTo installs the comparison engine, binning its verdicts into the
// "coverify.cmp" cover group of cover (nil: unbinned).
func (h *Harness) compareTo(cover *obs.CoverRegistry) {
	h.Cmp = refmodel.NewComparator()
	verdict := cover.Group("coverify.cmp").Point("verdict", "match", "mismatch")
	h.coverMatch, h.coverMismatch = verdict.Handle("match"), verdict.Handle("mismatch")
}

// splitter duplicates each cell to the reference model (output 0) and to
// the hardware coupling (output 1). It holds no state, so every fan-out
// node shares it.
var splitter = &netsim.Func{
	OnArrival: func(ctx *netsim.Ctx, pkt *netsim.Packet, port int) {
		cell := pkt.Data.(*atm.Cell)
		ctx.Send(ctx.Net().NewPacket("cell", cell.Clone(), pkt.Size), 0)
		ctx.Send(ctx.Net().NewPacket("cell", cell.Clone(), pkt.Size), 1)
	},
}

// feed adds traffic source i: limit cells built by cell at the arrival
// times of gen, each duplicated to the reference (node ref, input refPort)
// and to the interface process (input ifacePort).
func (h *Harness) feed(i int, gen traffic.Model, limit uint64, cell func(ctx *netsim.Ctx, k uint64) *atm.Cell,
	ref *netsim.Node, refPort, ifacePort int) {
	src := h.Net.Node(fmt.Sprintf("src%d", i), &netsim.Source{
		Gen:   gen,
		Limit: limit,
		Make: func(ctx *netsim.Ctx, k uint64) *netsim.Packet {
			return ctx.Net().NewPacket("cell", cell(ctx, k), atm.CellBytes*8)
		},
	})
	split := h.Net.Node(fmt.Sprintf("split%d", i), splitter)
	h.Net.Connect(src, 0, split, 0, netsim.LinkParams{})
	h.Net.Connect(split, 0, ref, refPort, netsim.LinkParams{})
	h.Net.Connect(split, 1, h.node, ifacePort, netsim.LinkParams{})
}

// newCell mints the next offered cell on vc, with CLP=1 at probability
// clp1: its Seq numbers it within the run and is stamped into the
// payload, and its injection opens the cell's causal trace.
func (h *Harness) newCell(ctx *netsim.Ctx, vc atm.VC, clp1 float64) *atm.Cell {
	c := &atm.Cell{Header: atm.Header{VPI: vc.VPI, VCI: vc.VCI}}
	if clp1 > 0 && ctx.RNG().Bool(clp1) {
		c.CLP = 1
	}
	c.Seq = uint32(h.Offered)
	h.Offered++
	c.StampSeq()
	h.cfg.Cells.Hop(uint64(c.Seq)+1, obs.HopNetEnqueue, int64(ctx.Now()))
	return c
}

// respond takes one DUT response cell into the comparison engine.
func (h *Harness) respond(resp cosim.Response) {
	cell, ok := resp.Value.(*atm.Cell)
	if !ok {
		panic(fmt.Sprintf("coverify: response kind %d carried %T", resp.Kind, resp.Value))
	}
	h.compare(int(resp.Kind-kindCellOut), cell, int64(resp.NetTime))
}

// compare feeds one DUT response cell into the comparison engine,
// closing the cell's causal waterfall at the compare hop and noting any
// fresh mismatch in the flight recorder. The TamperResponse hook (test
// instrumentation) is applied first, so an induced fault takes the same
// triage path as a real one.
func (h *Harness) compare(port int, c *atm.Cell, simPS int64) {
	if h.cfg.TamperResponse != nil {
		h.cfg.TamperResponse(c)
	}
	h.cfg.Cells.Hop(uint64(c.Seq)+1, obs.HopCompare, simPS)
	before := len(h.Cmp.Mismatches())
	h.Cmp.Actual(port, c)
	if ms := h.Cmp.Mismatches(); len(ms) > before {
		m := ms[len(ms)-1]
		h.cfg.Recorder.NoteCell(uint64(m.Seq)+1, "cmp", simPS, "port %d: %s", port, m)
		h.coverMismatch.Hit()
	} else {
		h.coverMatch.Hit()
	}
}

// drive runs the network simulation to the horizon and on through margin,
// so responses produced inside late δ-windows (whose hardware stamps may
// exceed the horizon) are still delivered, then grants the hardware a
// final window of flush to let in-flight cells settle and collects its
// last responses.
func (h *Harness) drive(until sim.Time, margin, flush sim.Duration) error {
	start := time.Now()
	defer h.account(start)
	tr, rec := h.cfg.Tracer, h.cfg.Recorder
	rec.Note("rig", int64(h.Net.Sched.Now()), "run to horizon %v", until)
	tr.Begin(obs.TrackRig, "run", int64(h.Net.Sched.Now()))
	h.Net.Run(until)
	if err := h.Iface.Err(); err != nil {
		return err
	}
	tr.End(obs.TrackRig, "run", int64(h.Net.Sched.Now()))
	tr.Begin(obs.TrackRig, "drain", int64(h.Net.Sched.Now()))
	rec.Note("rig", int64(h.Net.Sched.Now()), "horizon reached, draining")
	if margin > 0 {
		h.Net.Sched.RunUntil(until + margin)
		if err := h.Iface.Err(); err != nil {
			return err
		}
	}
	err := h.flush(until + margin + flush)
	tr.End(obs.TrackRig, "drain", int64(h.Net.Sched.Now()))
	h.publishObs()
	return err
}

// flush sends the final time update through the coupling and compares
// every response it returns.
func (h *Harness) flush(t sim.Time) error {
	if h.Entity != nil {
		h.Entity.FreezeLagStats = !h.countFlushLag
	}
	resps, err := h.Iface.Coupling.Exchange([]ipc.Message{{Kind: ipc.KindSync, Time: t}})
	if err != nil {
		return err
	}
	for _, m := range resps {
		v, err := h.registry.Decode(m.Kind, m.Data)
		if err != nil {
			return err
		}
		h.respond(cosim.Response{Kind: m.Kind, Value: v, HWTime: m.Time, NetTime: m.Time, Trace: m.Trace})
	}
	return nil
}

// account adds one run's wall time to the profile's total and publishes
// the sim-rate gauges: simulated work per wall-clock second, the
// co-simulation speed figures an operator watches on /profile. The
// ".rate." name segment is the convention the telemetry server extracts.
func (h *Harness) account(start time.Time) {
	wall := time.Since(start)
	h.runWall += wall
	h.cfg.Profile.PhaseProf().AddTotal(wall)
	reg, w := h.cfg.Registry, h.runWall.Seconds()
	if reg == nil || w <= 0 {
		return
	}
	if h.Cmp != nil {
		reg.Gauge("coverify.rate.cells_per_sec").Set(float64(h.DUTDelivered()) / w)
	}
	if h.HDL != nil {
		reg.Gauge("coverify.rate.signal_events_per_sec").Set(float64(h.HDL.Events()) / w)
		reg.Gauge("coverify.rate.clk_cycles_per_sec").Set(float64(h.ClockCycles()) / w)
	}
}

// publishObs writes the end-of-run verification figures into the
// registry: how many cells the environment offered, what the comparison
// engine saw, and the final protocol lag bound.
func (h *Harness) publishObs() {
	reg := h.cfg.Registry
	if reg == nil {
		return
	}
	reg.Gauge("coverify.offered").Set(float64(h.Offered))
	if h.Cmp != nil {
		reg.Gauge("coverify.cmp.matched").Set(float64(h.Cmp.Matched))
		reg.Gauge("coverify.cmp.mismatches").Set(float64(len(h.Cmp.Mismatches())))
		reg.Gauge("coverify.dut_delivered").Set(float64(h.DUTDelivered()))
	}
	if h.HDL != nil {
		reg.Gauge("coverify.clock_cycles").Set(float64(h.ClockCycles()))
		reg.Gauge("cosim.entity.max_lag_ps").Set(float64(h.Entity.MaxLag))
	}
}

// Close shuts down a remote coupling. It is idempotent: repeated calls
// return the server's first exit status instead of blocking on the
// already-drained completion channel.
func (h *Harness) Close() error {
	if h.transport != nil {
		h.transport.Close()
		if h.srvDone != nil {
			h.closeErr = <-h.srvDone
			h.srvDone = nil
		}
	}
	return h.closeErr
}

// DUTDelivered returns the number of cells that emerged from the DUT.
func (h *Harness) DUTDelivered() uint64 {
	return h.Cmp.Matched + uint64(len(h.Cmp.Mismatches()))
}

// ClockCycles returns how many HDL byte-clock cycles were simulated.
func (h *Harness) ClockCycles() uint64 {
	return uint64(h.HDL.Now() / clockPeriod)
}
