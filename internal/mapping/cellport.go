package mapping

import (
	"castanet/internal/atm"
	"castanet/internal/hdl"
)

// CellPortWriter serializes ATM cells onto the Fig.-4 port structure:
//
//	atmdata  : STD_LOGIC_VECTOR(7 downto 0)  — one octet per clock
//	cellsync : STD_LOGIC                     — high during the first octet
//
// One cell occupies exactly 53 rising clock edges. When the transmit
// queue is empty the writer inserts idle cells (SetInsertIdle) or drives
// zero with cellsync low, modeling the idle periods of a real ATM line
// versus a gated test stream. A writer with nothing to send and idle
// insertion off parks its process until the next Enqueue.
type CellPortWriter struct {
	// OnCellStart, when non-nil, fires as a cell queued by EnqueueTraced
	// with a nonzero trace ID puts its first octet onto the wire, with that
	// ID — the moment the hardware commits to transmitting it. Causal cell
	// tracing hooks here to record the hdl.commit hop.
	OnCellStart func(trace uint64)

	data *hdl.Driver
	sync *hdl.Driver
	proc *hdl.Process

	insertIdle bool
	queue      []queued
	current    [atm.CellBytes]byte
	pos        int
	active     bool

	// SentCells counts completed cell transmissions (including idles).
	SentCells uint64
	IdleCells uint64
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

// Enqueue schedules a cell for transmission. The payload is transmitted
// exactly as given; callers that match cells by sequence number stamp it
// into the payload first (Cell.StampSeq).
func (w *CellPortWriter) Enqueue(c *atm.Cell) {
	w.EnqueueTraced(c, 0)
}

// EnqueueTraced is Enqueue for a cell carrying causal trace ID trace (0:
// untraced); OnCellStart reports the ID when the cell commits.
func (w *CellPortWriter) EnqueueTraced(c *atm.Cell, trace uint64) {
	w.queue = append(w.queue, queued{img: c.Marshal(), trace: trace})
	w.proc.Wake()
}

// EnqueueRaw schedules a raw 53-octet image for transmission, including
// deliberately invalid images (bad HEC) — the path conformance test
// vectors take to the device.
func (w *CellPortWriter) EnqueueRaw(img [atm.CellBytes]byte) {
	w.queue = append(w.queue, queued{img: img})
	w.proc.Wake()
}

// SetInsertIdle switches idle-cell insertion on an empty queue; the
// setting takes effect at the next rising clock edge.
func (w *CellPortWriter) SetInsertIdle(on bool) {
	w.insertIdle = on
	w.proc.Wake()
}

// Backlog returns the number of cells waiting (excluding the one in
// flight).
func (w *CellPortWriter) Backlog() int { return len(w.queue) }

// Busy reports whether a cell is currently being transmitted.
func (w *CellPortWriter) Busy() bool { return w.active }

func (w *CellPortWriter) tick() {
	if !w.active {
		if len(w.queue) > 0 {
			q := w.queue[0]
			w.current = q.img
			w.queue = w.queue[1:]
			w.active = true
			w.pos = 0
			if q.trace != 0 && w.OnCellStart != nil {
				w.OnCellStart(q.trace)
			}
		} else if w.insertIdle {
			w.current = atm.IdleCell().Marshal()
			w.IdleCells++
			w.active = true
			w.pos = 0
		} else {
			// Idle line: once these zeros land, every further edge would
			// only re-assert them, so sleep until Enqueue or SetInsertIdle.
			w.data.SetUint(0)
			w.sync.SetBit(hdl.L0)
			w.proc.Park()
			return
		}
	}
	w.data.SetUint(uint64(w.current[w.pos]))
	if w.pos == 0 {
		w.sync.SetBit(hdl.L1)
	} else {
		w.sync.SetBit(hdl.L0)
	}
	w.pos++
	if w.pos == atm.CellBytes {
		w.active = false
		w.SentCells++
	}
}

// CellPortReader reassembles cells from the same port structure: it
// samples the data port on each rising clock edge, starts a new cell when
// cellsync is high, and invokes OnCell for every completed 53-octet image.
// HEC failures are surfaced through OnError; the cell is still delivered
// to OnError callers for diagnosis.
type CellPortReader struct {
	// OnCell receives each correctly delineated, HEC-clean cell.
	OnCell func(c *atm.Cell)
	// OnError receives the raw image of a cell that failed HEC, together
	// with the error.
	OnError func(img [atm.CellBytes]byte, err error)
	// SkipIdle suppresses OnCell for idle cells (they are part of the
	// line's framing, not of the traffic under test).
	SkipIdle bool

	buf      [atm.CellBytes]byte
	pos      int
	inCell   bool
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
		r.sample(data, cellSync)
		if !r.inCell && !cellSync.Bit().IsHigh() {
			p.Park()
		}
	})
	p.WakeOn(cellSync)
	return r
}

func (r *CellPortReader) sample(data, cellSync *hdl.Signal) {
	if cellSync.Bit().IsHigh() {
		// Cell start: discard any partial cell (loss of delineation).
		r.pos = 0
		r.inCell = true
	}
	if !r.inCell {
		return
	}
	// Uint serves from the packed two-state mirror on the compiled data
	// plane (no LV materialization); it degrades to the nine-value read
	// with identical semantics when the value carries X/Z/weak bits.
	u, ok := data.Uint()
	if !ok {
		// Undefined data mid-cell: abandon the cell.
		r.inCell = false
		r.Errors++
		if r.OnError != nil {
			r.OnError(r.buf, atm.ErrHEC)
		}
		return
	}
	r.buf[r.pos] = byte(u)
	r.pos++
	if r.pos < atm.CellBytes {
		return
	}
	r.inCell = false
	img := r.buf
	cell, err := atm.Unmarshal(img)
	if err != nil {
		r.Errors++
		if r.OnError != nil {
			r.OnError(img, err)
		}
		return
	}
	r.Received++
	if cell.IsIdle() {
		r.Idles++
		if r.SkipIdle {
			return
		}
	}
	if r.OnCell != nil {
		r.OnCell(cell)
	}
}
