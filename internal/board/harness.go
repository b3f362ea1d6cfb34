package board

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/ipc"
)

// StreamPair names the device ports of one bit-level cell stream: the
// Fig.-4 (data, sync) pair in each direction.
type StreamPair struct {
	DataIn, SyncIn   string // device inputs, driven by the board
	DataOut, SyncOut string // device outputs, sampled by the board
}

// StreamHarness converts between ATM cell images and board pin frames
// for a device whose interface is a set of cell streams (the switch, the
// accounting unit). It chunks work into hardware test cycles bounded by
// the board's memory depth and keeps reassembly state across cycles, so
// arbitrarily long verification runs execute as the paper describes:
// "test cycles run repeatedly until the simulation is finished".
type StreamHarness struct {
	Board   *Board
	Streams []StreamPair

	pending [][][atm.CellBytes]byte // per stream, cells waiting to be driven
	rx      []atm.Deframer
	// Out collects the images of reassembled, HEC-clean, non-idle output
	// cells per stream.
	Out [][][atm.CellBytes]byte
	// RxErrors counts HEC failures seen on device outputs.
	RxErrors uint64
}

// NewStreamHarness builds a harness; the board must already be configured
// with mappings covering every named port.
func NewStreamHarness(b *Board, streams []StreamPair) (*StreamHarness, error) {
	if !b.configured {
		return nil, fmt.Errorf("board: configure before building a harness")
	}
	havIn := make(map[string]bool)
	havOut := make(map[string]bool)
	for _, m := range b.Cfg.Inports {
		havIn[m.Port] = true
	}
	for _, m := range b.Cfg.Outports {
		havOut[m.Port] = true
	}
	for _, s := range streams {
		if !havIn[s.DataIn] || !havIn[s.SyncIn] {
			return nil, fmt.Errorf("board: stream input ports %q/%q not mapped", s.DataIn, s.SyncIn)
		}
		if !havOut[s.DataOut] || !havOut[s.SyncOut] {
			return nil, fmt.Errorf("board: stream output ports %q/%q not mapped", s.DataOut, s.SyncOut)
		}
	}
	return &StreamHarness{
		Board:   b,
		Streams: streams,
		pending: make([][][atm.CellBytes]byte, len(streams)),
		rx:      make([]atm.Deframer, len(streams)),
		Out:     make([][][atm.CellBytes]byte, len(streams)),
	}, nil
}

// Enqueue queues a cell image for transmission on a stream. It is driven
// exactly as given (callers stamp sequence numbers themselves).
func (h *StreamHarness) Enqueue(stream int, img [atm.CellBytes]byte) {
	h.pending[stream] = append(h.pending[stream], img)
}

// pinRange finds the mapping for a named input port.
func (h *StreamHarness) inPins(port string) PinRange {
	for _, m := range h.Board.Cfg.Inports {
		if m.Port == port {
			return m.Pins
		}
	}
	panic("board: unmapped port " + port)
}

func (h *StreamHarness) outPins(port string) PinRange {
	for _, m := range h.Board.Cfg.Outports {
		if m.Port == port {
			return m.Pins
		}
	}
	panic("board: unmapped port " + port)
}

// Execute drives all pending cells through the device, adding drainCycles
// idle cycles at the end so in-flight cells emerge. The work is split
// into as many hardware test cycles as the stimulus memory requires.
func (h *StreamHarness) Execute(drainCycles int) error {
	// Total cycles: longest stream backlog, serialized back to back.
	need := 0
	for _, q := range h.pending {
		if n := len(q) * atm.CellBytes; n > need {
			need = n
		}
	}
	total := need + drainCycles
	if total == 0 {
		return nil
	}
	// Build the full stimulus, then chunk it.
	stim := make([]Frame, total)
	for si, q := range h.pending {
		dp := h.inPins(h.Streams[si].DataIn)
		sp := h.inPins(h.Streams[si].SyncIn)
		var tx atm.Framer
		cyc := 0
		for _, img := range q {
			for tx.Load(img); tx.Busy(); cyc++ {
				octet, sync := tx.Next()
				insert(&stim[cyc], dp, uint64(octet))
				if sync {
					insert(&stim[cyc], sp, 1)
				}
			}
		}
		h.pending[si] = nil
	}
	for start := 0; start < total; start += h.Board.MemDepth {
		end := start + h.Board.MemDepth
		if end > total {
			end = total
		}
		resp, err := h.Board.RunTestCycle(stim[start:end])
		if err != nil {
			return err
		}
		h.parse(resp)
	}
	return nil
}

// parse reassembles output cells from response frames.
func (h *StreamHarness) parse(resp []Frame) {
	for si := range h.Streams {
		dp := h.outPins(h.Streams[si].DataOut)
		sp := h.outPins(h.Streams[si].SyncOut)
		rx := &h.rx[si]
		for _, f := range resp {
			img := rx.Push(byte(extract(f, dp)), extract(f, sp)&1 == 1)
			if img == nil {
				continue
			}
			hdr, err := atm.ImageHeader(*img)
			if err != nil {
				h.RxErrors++
				continue
			}
			if !hdr.IsIdle() {
				h.Out[si] = append(h.Out[si], *img)
			}
		}
	}
}

// TakeOut returns and clears the collected output cell images of one
// stream.
func (h *StreamHarness) TakeOut(stream int) [][atm.CellBytes]byte {
	out := h.Out[stream]
	h.Out[stream] = nil
	return out
}

// Coupling adapts the harness to the cosim.Coupling contract, placing the
// hardware test board in the simulation loop (the right-hand path of
// Fig. 1): cell messages accumulate as stimuli; every time-update message
// triggers a batch of hardware test cycles whose output cells return as
// responses. Cells stay images on the way through. KindOf maps input
// message kinds to streams; RespKind labels each stream's responses.
type Coupling struct {
	Harness *StreamHarness
	// KindOf returns the stream index for an input message kind, or -1.
	KindOf func(k ipc.Kind) int
	// RespKind returns the response kind for a stream index.
	RespKind func(stream int) ipc.Kind
	// DrainCycles pads every batch so in-flight cells emerge; defaults to
	// 4 cell times.
	DrainCycles int
}

// Exchange implements the coupling contract (structurally compatible
// with cosim.Coupling): the unit's messages are applied in order and the
// responses of every test-cycle batch they trigger are returned together.
func (c *Coupling) Exchange(msgs []ipc.Message) ([]ipc.Message, error) {
	var out []ipc.Message
	for _, msg := range msgs {
		var err error
		if out, err = c.apply(out, msg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// apply handles one message, appending any responses it produces to out.
func (c *Coupling) apply(out []ipc.Message, msg ipc.Message) ([]ipc.Message, error) {
	switch msg.Kind {
	case ipc.KindSync, ipc.KindInit:
		drain := c.DrainCycles
		if drain == 0 {
			drain = 4 * atm.CellBytes
		}
		if err := c.Harness.Execute(drain); err != nil {
			return nil, err
		}
		for si := range c.Harness.Streams {
			imgs := c.Harness.TakeOut(si)
			for i := range imgs {
				out = append(out, ipc.Message{
					Kind: c.RespKind(si),
					Time: msg.Time,
					Data: imgs[i][:],
				})
			}
		}
		return out, nil
	}
	stream := c.KindOf(msg.Kind)
	if stream < 0 {
		return nil, fmt.Errorf("board: no stream for message kind %d", msg.Kind)
	}
	img, err := atm.ParseImage(msg.Data)
	if err != nil {
		return nil, err
	}
	c.Harness.Enqueue(stream, img)
	return out, nil
}

// Close implements the coupling contract.
func (c *Coupling) Close() error { return nil }
