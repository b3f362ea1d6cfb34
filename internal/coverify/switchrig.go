// Package coverify assembles the complete Fig.-1 co-verification
// environments: traffic sources in the network simulator feeding both the
// algorithmic reference model and — through the CASTANET coupling — the
// register-transfer-level device under test, with the comparison engine
// checking every hardware response against the reference. It is the
// top-level API the examples, the command-line tool and the benchmark
// harnesses build on.
package coverify

import (
	"fmt"
	"io"
	"strings"
	"time"

	"castanet/internal/atm"
	"castanet/internal/dut"
	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/refmodel"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// Message kind layout of the switch coupling: one input queue per switch
// input port, one response kind per output port.
const (
	kindCellIn  = ipc.KindUser      // +port, 4 input queues
	kindCellOut = ipc.KindUser + 16 // +port, 4 response kinds
)

// KindCellIn returns the message kind of input port p.
func KindCellIn(p int) ipc.Kind { return kindCellIn + ipc.Kind(p) }

// KindCellOut returns the response kind of output port p.
func KindCellOut(p int) ipc.Kind { return kindCellOut + ipc.Kind(p) }

// PortTraffic configures the workload offered to one switch input port.
type PortTraffic struct {
	Model traffic.Model // inter-arrival process; nil = silent port
	VCs   []atm.VC      // connections cycled round-robin
	CLP1  float64       // fraction of cells sent with CLP=1
	Cells uint64        // number of cells to emit
}

// SwitchRigConfig parameterizes a switch co-verification run. Its coupling
// fields and observation handle are also the Harness configuration every
// rig elaborates from. The HDL byte clock is 50 ns (20 MHz) in every rig.
type SwitchRigConfig struct {
	Seed    uint64
	Delta   sim.Duration // δ_j processing window; default 64 clocks
	Switch  dut.SwitchConfig
	Table   *atm.Translator
	Traffic [dut.SwitchPorts]PortTraffic
	// Remote couples over an in-process socket pair with an EntityServer
	// goroutine instead of direct calls.
	Remote bool
	// Fault, when non-nil, injects deterministic link faults on the client
	// side of a Remote coupling (drops, duplication, corruption,
	// partitions). Requires Remote.
	Fault *ipc.FaultConfig
	// Reliable, when non-nil, layers the reliability envelope over both
	// ends of a Remote coupling so injected faults are recovered
	// transparently. Requires Remote.
	Reliable *ipc.ReliableConfig
	// Deadline arms the coupling watchdogs: the client Remote tears the
	// link down when one request/response round trip exceeds it, and the
	// EntityServer declares the client gone after the same silence. Zero
	// disables both.
	Deadline time.Duration
	// SyncEvery overrides the periodic time-update interval.
	SyncEvery sim.Duration
	// Batch is ignored: every coupling coalesces the messages of one
	// network instant into a single δ-window unit.
	//
	// Deprecated: ignored.
	Batch bool
	// NoCompiled keeps the HDL simulator on the plain nine-value event
	// kernel instead of the compiled bit-parallel data plane (hdl.Compile,
	// DESIGN.md §18). Observables are byte-identical either way — the flag
	// exists for differential testing and as the -no-compiled opt-out.
	NoCompiled bool
	// Waveforms, when non-nil, receives a VCD dump of the DUT's external
	// ports — the HDL-side waveform debugging window of Fig. 2.
	Waveforms io.Writer
	// Run is the run's one observation handle; every sink is optional
	// and nil-safe, so a zero Run elaborates an unobserved rig at ~0 ns
	// per hook. The harness hands it whole to every layer (DESIGN.md §10,
	// §20):
	//   - Registry: the network scheduler, HDL kernel, co-simulation
	//     entity/interface, transport envelopes and the comparison engine
	//     register counters and gauges under it (naming in DESIGN.md §10);
	//   - Tracer: δ-windows, coupling messages and rig phases, for Chrome
	//     trace-event export;
	//   - Cells: the causal per-hop journey of sampled cells (trace ID =
	//     cell Seq + 1) from traffic-source enqueue to the comparison
	//     engine; waterfalls surface in FailureDigest and as Chrome-trace
	//     flow arrows;
	//   - Cover: functional coverage — cell header bins, comparison
	//     verdicts, each rig's DUT bins and the coupling's sync-window
	//     extremes (DESIGN.md §15);
	//   - Profile: the HDL kernel's deterministic activity attribution as a
	//     live source, plus the wall-clock phase times (HDL execution,
	//     encode/decode, transport) of the entity and interface;
	//   - Recorder: the flight recorder — coupling failures, protocol
	//     anomalies and comparison mismatches noted as they happen and
	//     dumped by FailureDigest.
	obs.Run
	// TamperResponse, when non-nil, mutates every DUT response cell before
	// comparison — a verify-the-verifier hook that induces deterministic
	// mismatches so digests, waterfalls and recorder dumps can be exercised
	// end to end.
	TamperResponse func(c *atm.Cell)
}

// DefaultTable returns a full-mesh connection table: each input port p
// owns VCs {VPI:p+1, VCI:100+q} routed to output q with translated
// headers.
func DefaultTable() *atm.Translator {
	tb := atm.NewTranslator()
	for p := 0; p < dut.SwitchPorts; p++ {
		for q := 0; q < dut.SwitchPorts; q++ {
			in := atm.VC{VPI: byte(p + 1), VCI: uint16(100 + q)}
			out := atm.VC{VPI: byte(0x10 + p), VCI: uint16(0x200 + 16*p + q)}
			tb.Add(in, atm.Route{Port: q, Out: out})
		}
	}
	return tb
}

// PortVCs returns input port p's connections in the DefaultTable layout.
func PortVCs(p int) []atm.VC {
	vcs := make([]atm.VC, dut.SwitchPorts)
	for q := 0; q < dut.SwitchPorts; q++ {
		vcs[q] = atm.VC{VPI: byte(p + 1), VCI: uint16(100 + q)}
	}
	return vcs
}

// SwitchRig is an elaborated switch co-verification environment.
type SwitchRig struct {
	Harness
	Cfg SwitchRigConfig

	DUT *dut.Switch
	Ref *refmodel.SwitchRef

	vcd *hdl.VCD
}

// headerCover holds the stamp-site handles of the shared cell-header cover
// group (all nil without a cover registry). The switch, board and RTL
// rigs stamp headers through it, so they report against one schema.
type headerCover struct {
	vpi, vci, pti *obs.CoverPoint
	clp0, clp1    *obs.CoverHit
}

func newHeaderCover(c *obs.CoverRegistry) headerCover {
	g := c.Group("coverify.cell_header")
	clp := g.Point("clp", "clp0", "clp1")
	return headerCover{
		vpi:  g.Range("vpi", 1, 2, 4, 8, 16),
		vci:  g.Range("vci", 63, 127, 255, 1023),
		pti:  g.Range("pti", 0, 3, 7),
		clp0: clp.Handle("clp0"),
		clp1: clp.Handle("clp1"),
	}
}

// hit bins one stamped cell header.
func (hc headerCover) hit(h atm.Header) {
	hc.vpi.Observe(int64(h.VPI))
	hc.vci.Observe(int64(h.VCI))
	hc.pti.Observe(int64(h.PTI))
	if h.CLP != 0 {
		hc.clp1.Hit()
	} else {
		hc.clp0.Hit()
	}
}

// fillPayload writes a recognizable payload beyond the seq stamp.
func fillPayload(c *atm.Cell) {
	for b := 4; b < len(c.Payload); b++ {
		c.Payload[b] = byte(uint32(b) * (c.Seq + 1))
	}
}

// NewSwitchRig elaborates the complete environment.
func NewSwitchRig(cfg SwitchRigConfig) *SwitchRig {
	cfg = switchDefaults(cfg)
	r := &SwitchRig{Cfg: cfg}
	header := newHeaderCover(cfg.Cover)
	r.compareTo(cfg.Cover)

	// Hardware side: switch DUT plus the co-simulation entity.
	r.kernel(cfg)
	r.DUT = dut.NewSwitch(r.HDL, r.clk, cfg.Table, cfg.Switch)
	r.DUT.InstrumentCover(cfg.Cover)
	r.entity()
	for p := 0; p < dut.SwitchPorts; p++ {
		r.writer(fmt.Sprintf("castanet_tx%d", p), p, r.DUT.In[p])
		r.reader(fmt.Sprintf("castanet_rx%d", p), p, r.DUT.Out[p])
	}
	if cfg.Waveforms != nil {
		watch := []*hdl.Signal{r.clk}
		for p := 0; p < dut.SwitchPorts; p++ {
			watch = append(watch, r.DUT.In[p].Data, r.DUT.In[p].Sync,
				r.DUT.Out[p].Data, r.DUT.Out[p].Sync)
		}
		r.vcd = hdl.NewVCD(cfg.Waveforms, r.HDL, watch...)
	}

	// Network side.
	r.network(nil, nil)
	r.Ref = &refmodel.SwitchRef{Table: cfg.Table}
	r.Ref.OnForward = func(ctx *netsim.Ctx, outPort int, c *atm.Cell) {
		r.Cmp.Expect(outPort, c)
	}
	refNode := r.Net.Node("refswitch", r.Ref)
	r.attach()
	for p := 0; p < dut.SwitchPorts; p++ {
		tr := cfg.Traffic[p]
		if tr.Model == nil || tr.Cells == 0 {
			continue
		}
		r.feed(p, tr.Model, tr.Cells, func(ctx *netsim.Ctx, i uint64) *atm.Cell {
			c := r.newCell(ctx, tr.VCs[int(i)%len(tr.VCs)], tr.CLP1)
			fillPayload(c)
			header.hit(c.Header)
			return c
		}, refNode, p, p)
	}
	r.compile()
	return r
}

// Run executes the co-verification for the given horizon, lets the
// network simulation continue through a drain margin so that responses
// produced inside late δ-windows are still delivered, then flushes the
// hardware pipeline.
func (r *SwitchRig) Run(until sim.Time) error {
	margin := r.drainMargin()
	if err := r.drive(until, margin, margin); err != nil || r.vcd == nil {
		return err
	}
	return r.vcd.Close()
}

// drainMargin is a generous bound on how long in-flight cells can linger:
// every FIFO in the switch emptied at line rate, several times over.
func (r *SwitchRig) drainMargin() sim.Duration {
	return sim.Duration(4*(r.Cfg.Switch.InFifoCells+r.Cfg.Switch.OutFifoCells+8)) *
		atm.CellBytes * clockPeriod
}

// FailureDigest renders the rig's triage bundle after a failed or
// unclean run: the first comparison mismatch with its cell's trace ID and
// per-hop waterfall, followed by the flight-recorder dump. Everything in
// it derives from simulated time and seed-determined state, so a replay
// of the same run produces the same digest. Returns "" when there is
// nothing to report.
func (r *SwitchRig) FailureDigest() string {
	var b strings.Builder
	if ms := r.Cmp.Mismatches(); len(ms) > 0 {
		m := ms[0]
		id := uint64(m.Seq) + 1
		fmt.Fprintf(&b, "first mismatch: %s (trace=0x%x)\n", m, id)
		if tr, ok := r.Cfg.Cells.Trace(id); ok {
			b.WriteString(obs.WaterfallText(tr))
		} else if r.Cfg.Cells.Enabled() {
			fmt.Fprintf(&b, "cell trace 0x%x not sampled (tracing every %d cells)\n",
				id, r.Cfg.Cells.Every())
		}
	}
	b.WriteString(r.Cfg.Recorder.Dump())
	return b.String()
}

// Report summarizes the run for harness output.
func (r *SwitchRig) Report() string {
	return fmt.Sprintf("offered=%d refFwd=%d dut=%d drops=%d unknown=%d | %s | hdlEvents=%d netEvents=%d cycles=%d",
		r.Offered, r.refForwardTotal(), r.DUTDelivered(), r.DUT.Drops(), r.DUT.UnknownVC,
		r.Cmp.Summary(), r.HDL.Events(), r.Net.Sched.Executed(), r.ClockCycles())
}

func (r *SwitchRig) refForwardTotal() uint64 {
	var t uint64
	for _, f := range r.Ref.Forwarded {
		t += f
	}
	return t
}
