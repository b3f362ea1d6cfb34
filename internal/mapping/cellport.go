package mapping

import (
	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/sim"
)

// CellPortWriter serializes cell images onto the Fig.-4 port structure:
//
//	atmdata  : STD_LOGIC_VECTOR(7 downto 0)  — one octet per clock
//	cellsync : STD_LOGIC                     — high during the first octet
//
// One cell occupies exactly 53 rising clock edges (atm.Framer). When the
// transmit queue is empty the writer drives zero with cellsync low (a
// gated test stream) and parks its process until the next Enqueue. A test
// bench that models a continuously framed line enqueues idle-cell images.
type CellPortWriter struct {
	// OnCellStart, when non-nil, fires as a cell enqueued with a nonzero
	// trace ID puts its first octet onto the wire, with that ID — the
	// moment the hardware commits to transmitting it. Causal cell tracing
	// hooks here to record the hdl.commit hop.
	OnCellStart func(trace uint64)

	data *hdl.Driver
	sync *hdl.Driver
	proc *hdl.Process

	queue sim.FIFO[queued]
	frame atm.Framer

	// SentCells counts completed cell transmissions.
	SentCells uint64
}

// queued is one cell image waiting for the wire, with the causal trace ID
// it was enqueued under (0: untraced).
type queued struct {
	img   [atm.CellBytes]byte
	trace uint64
}

// NewCellPortWriter attaches a writer to the simulator: data must be an
// 8-bit signal, cellSync a 1-bit signal, clk the byte clock. The writer
// registers a rising-edge process on clk.
func NewCellPortWriter(s *hdl.Simulator, name string, clk, data, cellSync *hdl.Signal) *CellPortWriter {
	if data.Width() != 8 {
		panic("mapping: cell data port must be 8 bits wide")
	}
	if cellSync.Width() != 1 {
		panic("mapping: cellsync must be 1 bit wide")
	}
	w := &CellPortWriter{
		data: data.Driver(name + ":data"),
		sync: cellSync.Driver(name + ":sync"),
	}
	w.data.SetUint(0)
	w.sync.SetBit(hdl.L0)
	w.proc = s.Clocked(name, clk, w.tick)
	return w
}

// Enqueue schedules a cell image for transmission, carrying causal trace
// ID trace (0: untraced); OnCellStart reports the ID when the cell
// commits. The image is sent exactly as given, deliberately invalid ones
// (bad HEC) included: that is the path conformance test vectors take to
// the device. Callers that match cells by sequence number stamp it into
// the payload first (Cell.StampSeq).
func (w *CellPortWriter) Enqueue(img [atm.CellBytes]byte, trace uint64) {
	w.queue.Push(queued{img: img, trace: trace})
	w.proc.Wake()
}

// Backlog returns the number of cells waiting (excluding the one in
// flight).
func (w *CellPortWriter) Backlog() int { return w.queue.Len() }

// Busy reports whether a cell is currently being transmitted.
func (w *CellPortWriter) Busy() bool { return w.frame.Busy() }

func (w *CellPortWriter) tick() {
	if !w.frame.Busy() {
		if w.queue.Len() == 0 {
			// Idle line: once these zeros land, every further edge would
			// only re-assert them, so sleep until the next Enqueue.
			w.data.SetUint(0)
			w.sync.SetBit(hdl.L0)
			w.proc.Park()
			return
		}
		q := w.queue.Pop()
		w.frame.Load(q.img)
		if q.trace != 0 && w.OnCellStart != nil {
			w.OnCellStart(q.trace)
		}
	}
	octet, sync := w.frame.Next()
	w.data.SetUint(uint64(octet))
	if sync {
		w.sync.SetBit(hdl.L1)
	} else {
		w.sync.SetBit(hdl.L0)
	}
	if !w.frame.Busy() {
		w.SentCells++
	}
}

// CellPortReader reassembles cells from the same port structure: it
// samples the data port on each rising clock edge into an atm.Deframer
// and invokes OnCell for every completed, HEC-clean 53-octet image. HEC
// failures and undefined data mid-cell are surfaced through OnError.
type CellPortReader struct {
	// OnCell receives each correctly delineated, HEC-clean cell image with
	// its header.
	OnCell func(img [atm.CellBytes]byte, hdr atm.Header)
	// OnError receives the raw image of a cell that failed HEC, together
	// with the error.
	OnError func(img [atm.CellBytes]byte, err error)
	// SkipIdle suppresses OnCell for idle cells (they are part of the
	// line's framing, not of the traffic under test).
	SkipIdle bool

	frame    atm.Deframer
	Received uint64
	Errors   uint64
	Idles    uint64
}

// NewCellPortReader attaches a reader to the simulator, sampling data and
// cellSync on rising edges of clk. Between cells, while cellsync is not
// high, the reader's process parks and any cellsync event wakes it.
func NewCellPortReader(s *hdl.Simulator, name string, clk, data, cellSync *hdl.Signal) *CellPortReader {
	if data.Width() != 8 {
		panic("mapping: cell data port must be 8 bits wide")
	}
	r := &CellPortReader{}
	var p *hdl.Process
	p = s.Clocked(name, clk, func() {
		sync := cellSync.Bit().IsHigh()
		r.sample(data, sync)
		if !r.frame.Busy() && !sync {
			p.Park()
		}
	})
	p.WakeOn(cellSync)
	return r
}

func (r *CellPortReader) sample(data *hdl.Signal, sync bool) {
	if !sync && !r.frame.Busy() {
		return
	}
	// Uint serves from the packed two-state mirror on the compiled data
	// plane (no LV materialization); it degrades to the nine-value read
	// with identical semantics when the value carries X/Z/weak bits.
	u, ok := data.Uint()
	if !ok {
		// Undefined data mid-cell: abandon the cell.
		if partial := r.frame.Abort(sync); partial != nil {
			r.Errors++
			if r.OnError != nil {
				r.OnError(*partial, atm.ErrHEC)
			}
		}
		return
	}
	img := r.frame.Push(byte(u), sync)
	if img == nil {
		return
	}
	hdr, err := atm.ImageHeader(*img)
	if err != nil {
		r.Errors++
		if r.OnError != nil {
			r.OnError(*img, err)
		}
		return
	}
	r.Received++
	if hdr.IsIdle() {
		r.Idles++
		if r.SkipIdle {
			return
		}
	}
	if r.OnCell != nil {
		r.OnCell(*img, hdr)
	}
}
