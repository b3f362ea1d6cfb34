// Package dut contains the ATM hardware devices under test, modeled as
// processes on the event-driven HDL kernel the way their VHDL originals
// would be: an ATM switch built from four port modules and one global
// control unit (the configuration of the paper's §2 performance figures)
// and the ATM accounting unit of the paper's case study.
//
// External interfaces are strictly bit-level — 8-bit cell streams with a
// cell-synchronization signal, exactly the Fig.-4 port structure — so the
// devices can be driven either by the co-simulation entity or by the
// hardware test board model.
package dut

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// SwitchPorts is the port count of the switch: four port modules, one
// global control unit, matching the paper's evaluation configuration.
const SwitchPorts = 4

// busWords is the number of 32-bit internal bus beats needed per cell:
// 53 octets = 13 full words + 1 tail word.
const busWords = (atm.CellBytes + 3) / 4

// Switch is a 4x4 output-queued ATM switch. Cells arrive on bit-level
// input ports, are reassembled by the port modules, routed by the global
// control unit via VPI/VCI table lookup with header translation, carried
// over a shared 32-bit internal bus, and serialized out of the destination
// port module.
type Switch struct {
	HDL *hdl.Simulator
	// Table is the connection table maintained by (modeled) control
	// software: incoming VC -> output port and translated VC.
	Table *atm.Translator

	// In/Out expose the bit-level cell stream ports, indexed by port.
	In  [SwitchPorts]CellPort
	Out [SwitchPorts]CellPort

	ports [SwitchPorts]*portModule
	gcu   *globalControlUnit

	// Statistics (visible to the verification environment the way a chip's
	// diagnostic registers would be).
	RxCells      [SwitchPorts]uint64
	TxCells      [SwitchPorts]uint64
	HECErrors    [SwitchPorts]uint64
	UnknownVC    uint64
	InFifoDrops  [SwitchPorts]uint64
	OutFifoDrops [SwitchPorts]uint64

	// Functional-coverage handles (nil until InstrumentCover, and
	// nil-safe after: a run without coverage pays one pointer test per
	// site).
	coverInDepth  *obs.CoverPoint
	coverOutDepth *obs.CoverPoint
	// Drop causes and the depth-band × outcome cross are stamped on the
	// per-cell hot path, so the bin handles are cached once at
	// InstrumentCover instead of resolved by label per hit.
	coverDropInFifo    *obs.CoverHit
	coverDropOutFifo   *obs.CoverHit
	coverDropUnknownVC *obs.CoverHit
	coverDropHEC       *obs.CoverHit
	coverOutLowAccept  *obs.CoverHit
	coverOutLowDrop    *obs.CoverHit
	coverOutHighAccept *obs.CoverHit
	coverOutHighDrop   *obs.CoverHit
}

// InstrumentCover registers the switch's functional coverage under the
// "dut.queue" group: input/output FIFO occupancy bands sampled at every
// enqueue, drop causes, and a depth-band × outcome cross at the output
// queue (the congestion signature: drops must only appear in the high
// band). Safe on a nil registry.
func (s *Switch) InstrumentCover(c *obs.CoverRegistry) {
	g := c.Group("dut.queue")
	s.coverInDepth = g.Range("in_fifo_depth", 0, 1, 2, 4)
	s.coverOutDepth = g.Range("out_fifo_depth", 0, 2, 8, 32)
	drop := g.Point("drop", "in_fifo", "out_fifo", "unknown_vc", "hec")
	s.coverDropInFifo = drop.Handle("in_fifo")
	s.coverDropOutFifo = drop.Handle("out_fifo")
	s.coverDropUnknownVC = drop.Handle("unknown_vc")
	s.coverDropHEC = drop.Handle("hec")
	depthOut := g.Cross("out_depth_outcome",
		[]string{"low", "high"}, []string{"accept", "drop"})
	s.coverOutLowAccept = depthOut.Handle("low", "accept")
	s.coverOutLowDrop = depthOut.Handle("low", "drop")
	s.coverOutHighAccept = depthOut.Handle("high", "accept")
	s.coverOutHighDrop = depthOut.Handle("high", "drop")
}

// CellPort is one bit-level cell stream interface: 8 data bits plus a
// cell-start strobe (Fig. 4).
type CellPort struct {
	Data *hdl.Signal // 8-bit
	Sync *hdl.Signal // 1-bit, high on the first octet of a cell
}

// SwitchConfig sizes the switch's buffers.
type SwitchConfig struct {
	InFifoCells  int // per input port, pending reassembled cells
	OutFifoCells int // per output port, cells awaiting serialization
}

// DefaultSwitchConfig mirrors a small ASIC: shallow input FIFOs, deeper
// output queues (the switch is output-queued).
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{InFifoCells: 4, OutFifoCells: 32}
}

// NewSwitch elaborates the switch on the given simulator, clocked by clk.
func NewSwitch(h *hdl.Simulator, clk *hdl.Signal, table *atm.Translator, cfg SwitchConfig) *Switch {
	sw := &Switch{HDL: h, Table: table}
	if cfg.InFifoCells <= 0 || cfg.OutFifoCells <= 0 {
		panic("dut: switch FIFO depths must be positive")
	}

	// Internal shared bus.
	busData := h.Signal("ibus_data", 32, hdl.U)
	busValid := h.Bit("ibus_valid", hdl.U)
	busDest := h.Signal("ibus_dest", 2, hdl.U)

	sw.gcu = newGCU(h, clk, sw)

	for i := 0; i < SwitchPorts; i++ {
		name := fmt.Sprintf("port%d", i)
		sw.In[i] = CellPort{
			Data: h.Signal(name+"_rx_data", 8, hdl.U),
			Sync: h.Bit(name+"_rx_sync", hdl.U),
		}
		sw.Out[i] = CellPort{
			Data: h.Signal(name+"_tx_data", 8, hdl.U),
			Sync: h.Bit(name+"_tx_sync", hdl.U),
		}
		sw.ports[i] = newPortModule(h, clk, sw, i, cfg, busData, busValid, busDest)
		sw.gcu.proc.WakeOn(sw.ports[i].req)
	}
	return sw
}

// portModule is one line interface: input reassembly + request to the
// GCU + streaming onto the internal bus, and output collection + cell
// serialization.
type portModule struct {
	sw  *Switch
	idx int

	// Input side.
	req    *hdl.Signal // to GCU
	reqDrv *hdl.Driver
	hdr    *hdl.Signal // 24-bit VPI(8) | VCI(16) of the pending cell
	hdrDrv *hdl.Driver
	inFifo sim.FIFO[inCell]
	inCap  int

	// Streaming state.
	streaming  bool
	streamPos  int
	streamCell [atm.CellBytes]byte

	busDataDrv  *hdl.Driver
	busValidDrv *hdl.Driver
	busDestDrv  *hdl.Driver

	// Output side.
	collectPos int
	collecting bool
	collectBuf [atm.CellBytes]byte
	outFifo    sim.FIFO[[atm.CellBytes]byte]
	outCap     int
	writer     *mapping.CellPortWriter

	// The port's processes park while idle: ctl with nothing to stream or
	// present, collect while the bus carries no valid beat for this port,
	// txfeed while the output FIFO is empty.
	ctl, collect, txfeed *hdl.Process
}

// inCell is one reassembled cell awaiting the bus: its image and the
// header the reader decoded from it, kept so that neither the request
// nor the translation decodes the image again.
type inCell struct {
	img [atm.CellBytes]byte
	hdr atm.Header
}

func newPortModule(h *hdl.Simulator, clk *hdl.Signal, sw *Switch, idx int, cfg SwitchConfig,
	busData, busValid, busDest *hdl.Signal) *portModule {
	name := fmt.Sprintf("port%d", idx)
	p := &portModule{sw: sw, idx: idx, inCap: cfg.InFifoCells, outCap: cfg.OutFifoCells}

	p.req = h.Bit(name+"_req", hdl.U)
	p.reqDrv = p.req.Driver(name)
	p.reqDrv.SetBit(hdl.L0)
	p.hdr = h.Signal(name+"_hdr", 24, hdl.U)
	p.hdrDrv = p.hdr.Driver(name)
	p.hdrDrv.SetUint(0)

	p.busDataDrv = busData.Driver(name)
	p.busValidDrv = busValid.Driver(name)
	p.busDestDrv = busDest.Driver(name)
	p.busDataDrv.Set(hdl.NewLV(32, hdl.Z))
	p.busValidDrv.SetBit(hdl.Z)
	p.busDestDrv.Set(hdl.NewLV(2, hdl.Z))

	// Input reassembly straight off the line.
	rd := mapping.NewCellPortReader(h, name+"_rx", clk, sw.In[idx].Data, sw.In[idx].Sync)
	rd.OnCell = func(img [atm.CellBytes]byte, hdr atm.Header) {
		if hdr.IsIdle() || hdr.IsUnassigned() {
			return
		}
		sw.RxCells[idx]++
		sw.coverInDepth.Observe(int64(p.inFifo.Len()))
		if p.inFifo.Len() >= p.inCap {
			sw.InFifoDrops[idx]++
			sw.coverDropInFifo.Hit()
			return
		}
		p.inFifo.Push(inCell{img: img, hdr: hdr})
		p.ctl.Wake()
	}
	rd.OnError = func(img [atm.CellBytes]byte, err error) {
		sw.HECErrors[idx]++
		sw.coverDropHEC.Hit()
	}

	// Request/stream state machine.
	gcu := sw.gcu
	p.ctl = h.Clocked(name+"_ctl", clk, func() {
		switch {
		case p.streaming:
			p.streamBeat()
		case p.inFifo.Len() > 0:
			// Present the head cell to the GCU.
			hdr := p.inFifo.Head().hdr
			p.reqDrv.SetBit(hdl.L1)
			p.hdrDrv.SetUint(uint64(hdr.VPI)<<16 | uint64(hdr.VCI))
			if gcu.granted == idx {
				// Grant received this cycle: translate and stream.
				gcu.granted = -1
				p.reqDrv.SetBit(hdl.L0)
				p.beginStream(p.inFifo.Pop(), gcu.grantHdr, gcu.grantDest)
			}
		default:
			p.reqDrv.SetBit(hdl.L0)
			p.ctl.Park() // until OnCell queues a cell
		}
	})

	// Output collection from the internal bus.
	p.collect = h.Clocked(name+"_collect", clk, func() {
		if !busValid.Bit().IsHigh() {
			p.collect.Park()
			return
		}
		dest, ok := busDest.Uint()
		if !ok || int(dest) != idx {
			p.collect.Park() // another port's stream
			return
		}
		word, ok := busData.Uint()
		if !ok {
			p.collecting = false
			return
		}
		if !p.collecting {
			p.collecting = true
			p.collectPos = 0
		}
		for b := 0; b < 4 && p.collectPos < atm.CellBytes; b++ {
			p.collectBuf[p.collectPos] = byte(word >> (8 * uint(3-b)))
			p.collectPos++
		}
		if p.collectPos == atm.CellBytes {
			p.collecting = false
			depth := p.outFifo.Len()
			sw.coverOutDepth.Observe(int64(depth))
			accept, drop := sw.coverOutLowAccept, sw.coverOutLowDrop
			if depth >= p.outCap/2 {
				accept, drop = sw.coverOutHighAccept, sw.coverOutHighDrop
			}
			if depth >= p.outCap {
				sw.OutFifoDrops[idx]++
				sw.coverDropOutFifo.Hit()
				drop.Hit()
			} else {
				p.outFifo.Push(p.collectBuf)
				p.txfeed.Wake()
				accept.Hit()
			}
		}
	})
	p.collect.WakeOn(busValid)
	p.collect.WakeOn(busDest)

	// Output serializer.
	p.writer = mapping.NewCellPortWriter(h, name+"_tx", clk, sw.Out[idx].Data, sw.Out[idx].Sync)
	p.txfeed = h.Clocked(name+"_txfeed", clk, func() {
		if p.outFifo.Len() == 0 {
			p.txfeed.Park() // until collect appends
			return
		}
		if !p.writer.Busy() && p.writer.Backlog() == 0 {
			img := p.outFifo.Pop()
			if atm.HEC(img[0], img[1], img[2], img[3]) != img[4] {
				sw.HECErrors[idx]++
				sw.coverDropHEC.Hit()
				return
			}
			p.writer.Enqueue(img, 0)
			sw.TxCells[idx]++
		}
	})

	return p
}

// beginStream loads the translated cell image and claims the bus.
func (p *portModule) beginStream(c inCell, newHdr atm.Header, dest int) {
	// Header translation: rebuild the first five octets with the new
	// VPI/VCI and a freshly computed HEC (the PTI/CLP travel unchanged).
	h := c.hdr
	img := c.img
	h.VPI = newHdr.VPI
	h.VCI = newHdr.VCI
	nb := h.MarshalHeader()
	copy(img[:atm.HeaderBytes], nb[:])
	p.streamCell = img
	p.streaming = true
	p.streamPos = 0
	p.busDestDrv.SetUint(uint64(dest))
	p.streamBeat()
}

// streamBeat drives one 32-bit word of the cell onto the internal bus.
func (p *portModule) streamBeat() {
	if p.streamPos >= busWords {
		// Release the bus.
		p.streaming = false
		p.busDataDrv.SetZ()
		p.busValidDrv.SetBit(hdl.Z)
		p.busDestDrv.SetZ()
		p.sw.gcu.busFree()
		return
	}
	var word uint64
	for b := 0; b < 4; b++ {
		i := p.streamPos*4 + b
		var v byte
		if i < atm.CellBytes {
			v = p.streamCell[i]
		}
		word = word<<8 | uint64(v)
	}
	p.busDataDrv.SetUint(word)
	p.busValidDrv.SetBit(hdl.L1)
	p.streamPos++
}

// globalControlUnit arbitrates the internal bus round-robin and resolves
// VPI/VCI translations. The connection table itself models the on-chip
// CAM loaded by control software.
type globalControlUnit struct {
	sw *Switch

	busy      bool
	rrNext    int
	granted   int // port index granted this cycle, -1 otherwise
	grantHdr  atm.Header
	grantDest int

	// Grants counts successful arbitrations (diagnostic).
	Grants uint64

	// proc parks while the bus is busy or no port requests it; busFree
	// and every req event wake it.
	proc *hdl.Process
}

func newGCU(h *hdl.Simulator, clk *hdl.Signal, sw *Switch) *globalControlUnit {
	g := &globalControlUnit{sw: sw, granted: -1}
	g.proc = h.Clocked("gcu", clk, func() {
		if g.busy {
			g.proc.Park()
			return
		}
		g.granted = -1
		requested := false
		for n := 0; n < SwitchPorts; n++ {
			i := (g.rrNext + n) % SwitchPorts
			p := sw.ports[i]
			if !p.req.Bit().IsHigh() {
				continue
			}
			requested = true
			hv, ok := p.hdr.Uint()
			if !ok {
				continue
			}
			vc := atm.VC{VPI: byte(hv >> 16), VCI: uint16(hv)}
			route, found := sw.Table.Lookup(vc)
			if !found {
				// Unknown connection: instruct the port to discard by
				// consuming its request without a grant.
				sw.UnknownVC++
				sw.coverDropUnknownVC.Hit()
				p.inFifo.Pop()
				continue
			}
			g.granted = i
			g.grantHdr = atm.Header{VPI: route.Out.VPI, VCI: route.Out.VCI}
			g.grantDest = route.Port
			g.rrNext = (i + 1) % SwitchPorts
			g.busy = true
			g.Grants++
			break
		}
		if !requested {
			g.proc.Park()
		}
	})
	return g
}

// busFree is signalled by the streaming port when its last beat left the
// bus.
func (g *globalControlUnit) busFree() {
	g.busy = false
	g.proc.Wake()
}

// Drops returns the total number of cells lost in the switch for any
// reason.
func (s *Switch) Drops() uint64 {
	total := s.UnknownVC
	for i := 0; i < SwitchPorts; i++ {
		total += s.InFifoDrops[i] + s.OutFifoDrops[i] + s.HECErrors[i]
	}
	return total
}
