// Package refmodel hosts the algorithmic reference models the hardware is
// verified against (the "Algorithm Reference Model" box of Fig. 1) and the
// comparison engine (the "=?" box): the network-simulator-level behavioral
// descriptions of the ATM switch and the accounting unit, plus a
// cell-stream comparator that matches device-under-test responses against
// reference outputs and records every discrepancy.
package refmodel

import (
	"fmt"
	"sort"

	"castanet/internal/atm"
	"castanet/internal/netsim"
	"castanet/internal/sim"
)

// SwitchRef is the behavioral reference model of the 4x4 ATM switch: a
// netsim processor that performs the same VPI/VCI translation and routing
// as the RTL switch, instantaneously at the cell level of abstraction.
// Cells arrive as *atm.Cell packets on input ports 0..3 and leave,
// translated, on the corresponding output ports.
type SwitchRef struct {
	Table *atm.Translator
	// Latency is the nominal forwarding delay added to every cell; the
	// functional comparison keys on content and ordering, not on exact
	// timing, but a non-zero latency keeps network-level statistics
	// meaningful.
	Latency sim.Duration

	// UnknownVC counts discarded cells on unconfigured connections,
	// mirroring the DUT's diagnostic counter.
	UnknownVC uint64
	// Forwarded counts per output port.
	Forwarded [4]uint64

	// OnForward, when set, observes every forwarded cell before it is
	// sent (used to feed the comparator's expectation stream).
	OnForward func(ctx *netsim.Ctx, outPort int, c *atm.Cell)
}

// Init implements netsim.Processor.
func (s *SwitchRef) Init(ctx *netsim.Ctx) {}

// Arrival implements netsim.Processor.
func (s *SwitchRef) Arrival(ctx *netsim.Ctx, pkt netsim.Packet, port int) {
	c, ok := pkt.Data.(*atm.Cell)
	if !ok {
		panic(fmt.Sprintf("refmodel: SwitchRef got %T, want *atm.Cell", pkt.Data))
	}
	if c.IsIdle() || c.IsUnassigned() {
		return
	}
	route, found := s.Table.Lookup(c.VC())
	if !found {
		s.UnknownVC++
		return
	}
	// The one copy a forwarded cell costs: the arriving cell is immutable
	// (it was sent), so the translation writes a fresh one, which is in
	// turn immutable once forwarded.
	out := c.Clone()
	out.VPI = route.Out.VPI
	out.VCI = route.Out.VCI
	s.Forwarded[route.Port]++
	if s.OnForward != nil {
		s.OnForward(ctx, route.Port, out)
	}
	if ctx.Connected(route.Port) {
		fwd := ctx.Net().NewPacket(out, atm.CellBytes*8)
		if s.Latency > 0 {
			ctx.SetTimer(s.Latency, timedForward{pkt: fwd, port: route.Port})
			return
		}
		ctx.Send(fwd, route.Port)
	}
}

type timedForward struct {
	pkt  netsim.Packet
	port int
}

// Timer implements netsim.Processor.
func (s *SwitchRef) Timer(ctx *netsim.Ctx, tag interface{}) {
	if tf, ok := tag.(timedForward); ok {
		ctx.Send(tf.pkt, tf.port)
	}
}

// MismatchKind classifies a comparison failure.
type MismatchKind int

// Comparison failure classes.
const (
	// MismatchHeader: the cell arrived where expected but with wrong
	// header fields.
	MismatchHeader MismatchKind = iota
	// MismatchPort: the cell left on the wrong output port.
	MismatchPort
	// MismatchUnexpected: the DUT produced a cell the reference never
	// forwarded.
	MismatchUnexpected
	// MismatchPayload: payload bytes differ.
	MismatchPayload
	// MismatchDuplicate: the DUT delivered the same cell twice.
	MismatchDuplicate
)

// String names the mismatch kind.
func (k MismatchKind) String() string {
	switch k {
	case MismatchHeader:
		return "header"
	case MismatchPort:
		return "port"
	case MismatchUnexpected:
		return "unexpected"
	case MismatchPayload:
		return "payload"
	case MismatchDuplicate:
		return "duplicate"
	default:
		return "?"
	}
}

// Mismatch is one recorded discrepancy between reference and DUT.
type Mismatch struct {
	Kind     MismatchKind
	Seq      uint32
	Detail   string
	Expected *atm.Cell
	Actual   *atm.Cell
}

// String formats the mismatch for reports.
func (m Mismatch) String() string {
	return fmt.Sprintf("mismatch[%v] seq=%d: %s", m.Kind, m.Seq, m.Detail)
}

// Comparator matches DUT output cells against reference expectations.
// Cells are keyed by their Seq stamp (unique per verification run), so
// reordering across independent connections — legal in the hardware — does
// not raise false alarms, while per-cell content and routing are checked
// exactly.
type Comparator struct {
	expected map[uint32]expectedCell
	matched  map[uint32]bool

	Matched    uint64
	mismatches []Mismatch
}

type expectedCell struct {
	port int
	cell *atm.Cell
}

// NewComparator returns an empty comparator.
func NewComparator() *Comparator {
	return &Comparator{expected: make(map[uint32]expectedCell), matched: make(map[uint32]bool)}
}

// Expect records that the reference model forwarded a cell to the given
// output port. The comparator keeps cell itself: a forwarded cell is
// immutable, so the caller must not modify it afterwards.
func (c *Comparator) Expect(port int, cell *atm.Cell) {
	c.expected[cell.Seq] = expectedCell{port: port, cell: cell}
}

// Actual records a DUT output cell and checks it against the expectation.
func (c *Comparator) Actual(port int, cell *atm.Cell) {
	exp, ok := c.expected[cell.Seq]
	if !ok {
		c.add(Mismatch{Kind: MismatchUnexpected, Seq: cell.Seq, Actual: cell.Clone(),
			Detail: fmt.Sprintf("cell %v on port %d has no reference counterpart", cell.VC(), port)})
		return
	}
	if c.matched[cell.Seq] {
		c.add(Mismatch{Kind: MismatchDuplicate, Seq: cell.Seq, Actual: cell.Clone(),
			Detail: fmt.Sprintf("cell %v delivered more than once", cell.VC())})
		return
	}
	if port != exp.port {
		c.add(Mismatch{Kind: MismatchPort, Seq: cell.Seq, Expected: exp.cell, Actual: cell.Clone(),
			Detail: fmt.Sprintf("routed to port %d, reference says %d", port, exp.port)})
		return
	}
	if cell.Header != exp.cell.Header {
		c.add(Mismatch{Kind: MismatchHeader, Seq: cell.Seq, Expected: exp.cell, Actual: cell.Clone(),
			Detail: fmt.Sprintf("header %+v, reference %+v", cell.Header, exp.cell.Header)})
		return
	}
	if cell.Payload != exp.cell.Payload {
		c.add(Mismatch{Kind: MismatchPayload, Seq: cell.Seq, Expected: exp.cell, Actual: cell.Clone(),
			Detail: "payload differs"})
		return
	}
	c.matched[cell.Seq] = true
	c.Matched++
}

func (c *Comparator) add(m Mismatch) { c.mismatches = append(c.mismatches, m) }

// Mismatches returns all recorded discrepancies.
func (c *Comparator) Mismatches() []Mismatch { return c.mismatches }

// Outstanding returns the reference cells the DUT has not yet delivered,
// sorted by sequence number. A non-empty result at end of run means lost
// cells — unless the run legitimately dropped them (overload tests pass
// the allowed count to OutstandingAllowed).
func (c *Comparator) Outstanding() []uint32 {
	var out []uint32
	for seq := range c.expected {
		if !c.matched[seq] {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clean reports a fully successful comparison: every expected cell
// delivered exactly once, nothing else.
func (c *Comparator) Clean() bool {
	return len(c.mismatches) == 0 && len(c.Outstanding()) == 0
}

// Summary formats the comparison result.
func (c *Comparator) Summary() string {
	return fmt.Sprintf("compare: %d matched, %d mismatches, %d outstanding",
		c.Matched, len(c.mismatches), len(c.Outstanding()))
}
