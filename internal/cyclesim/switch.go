package cyclesim

import (
	"fmt"

	"castanet/internal/atm"
)

// Switch is the cycle-based twin of the event-driven dut.Switch: the same
// 4x4 ATM switch (port modules, global control unit, shared 32-bit
// internal bus, output queues) expressed as one Tick function. Cell-level
// behaviour — VPI/VCI translation, routing, HEC checking, FIFO drops —
// matches the RTL device; sub-cell timing is equivalent to within the
// arbitration jitter of the shared bus.
type Switch struct {
	Table         *atm.Translator
	InCap, OutCap int

	in  [4]swInPort
	out [4]swOutPort

	busBusy int // remaining beats of the transfer in flight
	rrNext  int

	RxCells   [4]uint64
	TxCells   [4]uint64
	HECErrors [4]uint64
	UnknownVC uint64
	InDrops   [4]uint64
	OutDrops  [4]uint64
}

const busBeats = (atm.CellBytes+3)/4 + 1 // words + grant cycle

type swInPort struct {
	rx   atm.Deframer
	fifo [][atm.CellBytes]byte
}

type swOutPort struct {
	fifo [][atm.CellBytes]byte
	tx   atm.Framer
}

// NewSwitch returns a cycle-based switch with the given table and FIFO
// depths.
func NewSwitch(table *atm.Translator, inCap, outCap int) *Switch {
	if inCap <= 0 || outCap <= 0 {
		panic("cyclesim: FIFO depths must be positive")
	}
	return &Switch{Table: table, InCap: inCap, OutCap: outCap}
}

// Ports implements Device: four (data, sync) input pairs then four output
// pairs.
func (s *Switch) Ports() []Port {
	var ports []Port
	for i := 0; i < 4; i++ {
		ports = append(ports,
			Port{Name: fmt.Sprintf("rx%d_data", i), Width: 8, Dir: In},
			Port{Name: fmt.Sprintf("rx%d_sync", i), Width: 1, Dir: In},
		)
	}
	for i := 0; i < 4; i++ {
		ports = append(ports,
			Port{Name: fmt.Sprintf("tx%d_data", i), Width: 8, Dir: Out},
			Port{Name: fmt.Sprintf("tx%d_sync", i), Width: 1, Dir: Out},
		)
	}
	return ports
}

// Reset implements Device.
func (s *Switch) Reset() {
	for i := range s.in {
		s.in[i] = swInPort{}
	}
	for i := range s.out {
		s.out[i] = swOutPort{}
	}
	s.busBusy = 0
	s.rrNext = 0
}

// Tick implements Device: in = [rx0_data, rx0_sync, rx1_data, ...],
// returns [tx0_data, tx0_sync, ...].
func (s *Switch) Tick(in []uint64) []uint64 {
	// Input reassembly.
	for p := 0; p < 4; p++ {
		if img := s.in[p].rx.Push(byte(in[2*p]), in[2*p+1]&1 == 1); img != nil {
			s.acceptCell(p, *img)
		}
	}
	// Arbitration + transfer: the shared bus moves one whole cell every
	// busBeats cycles; we account the beats and move the cell atomically
	// on grant (functionally identical, beat-exact on the output side
	// because the output FIFO absorbs it either way).
	if s.busBusy > 0 {
		s.busBusy--
	} else {
		for n := 0; n < 4; n++ {
			p := (s.rrNext + n) % 4
			ip := &s.in[p]
			if len(ip.fifo) == 0 {
				continue
			}
			img := ip.fifo[0]
			hdr, err := atm.ImageHeader(img)
			if err != nil {
				ip.fifo = ip.fifo[1:]
				s.HECErrors[p]++
				continue
			}
			route, found := s.Table.Lookup(atm.VC{VPI: hdr.VPI, VCI: hdr.VCI})
			if !found {
				s.UnknownVC++
				ip.fifo = ip.fifo[1:]
				continue
			}
			ip.fifo = ip.fifo[1:]
			hdr.VPI = route.Out.VPI
			hdr.VCI = route.Out.VCI
			nb := hdr.MarshalHeader()
			copy(img[:atm.HeaderBytes], nb[:])
			op := &s.out[route.Port]
			if len(op.fifo) >= s.OutCap {
				s.OutDrops[route.Port]++
			} else {
				op.fifo = append(op.fifo, img)
			}
			s.busBusy = busBeats - 1
			s.rrNext = (p + 1) % 4
			break
		}
	}
	// Output serialization.
	out := make([]uint64, 8)
	for p := 0; p < 4; p++ {
		op := &s.out[p]
		if !op.tx.Busy() && len(op.fifo) > 0 {
			op.tx.Load(op.fifo[0])
			op.fifo = op.fifo[1:]
			s.TxCells[p]++
		}
		octet, sync := op.tx.Next()
		out[2*p] = uint64(octet)
		if sync {
			out[2*p+1] = 1
		}
	}
	return out
}

func (s *Switch) acceptCell(p int, img [atm.CellBytes]byte) {
	ip := &s.in[p]
	hdr, err := atm.ImageHeader(img)
	if err != nil {
		s.HECErrors[p]++
		return
	}
	if hdr.IsIdle() || hdr.IsUnassigned() {
		return
	}
	s.RxCells[p]++
	if len(ip.fifo) >= s.InCap {
		s.InDrops[p]++
		return
	}
	ip.fifo = append(ip.fifo, img)
}

// Drops totals all loss counters.
func (s *Switch) Drops() uint64 {
	t := s.UnknownVC
	for p := 0; p < 4; p++ {
		t += s.InDrops[p] + s.OutDrops[p] + s.HECErrors[p]
	}
	return t
}

// Accounting is the cycle-based twin of dut.AccountingUnit: it snoops one
// cell stream and maintains per-slot usage counters, raising the exception
// output for one cycle per unregistered cell.
type Accounting struct {
	slots map[atm.VC]int
	nSlot int
	cap   int

	Cells [256]uint32
	CLP1  [256]uint32

	rx atm.Deframer

	Unregistered uint64
	Observed     uint64

	exception bool
}

// NewAccounting returns a cycle-based accounting unit with the given
// table capacity.
func NewAccounting(capacity int) *Accounting {
	if capacity <= 0 || capacity > 256 {
		panic("cyclesim: accounting capacity out of range")
	}
	return &Accounting{cap: capacity, slots: make(map[atm.VC]int)}
}

// Register binds a VC to the next table slot.
func (a *Accounting) Register(vc atm.VC) (int, error) {
	if idx, ok := a.slots[vc]; ok {
		return idx, nil
	}
	if a.nSlot >= a.cap {
		return 0, fmt.Errorf("cyclesim: accounting table full")
	}
	idx := a.nSlot
	a.nSlot++
	a.slots[vc] = idx
	return idx, nil
}

// Ports implements Device.
func (a *Accounting) Ports() []Port {
	return []Port{
		{Name: "rx_data", Width: 8, Dir: In},
		{Name: "rx_sync", Width: 1, Dir: In},
		{Name: "exception", Width: 1, Dir: Out},
	}
}

// Reset implements Device (table bindings survive reset, counters clear —
// matching a chip whose CAM is non-volatile configuration).
func (a *Accounting) Reset() {
	a.rx = atm.Deframer{}
	a.Cells = [256]uint32{}
	a.CLP1 = [256]uint32{}
	a.Unregistered = 0
	a.Observed = 0
	a.exception = false
}

// Tick implements Device.
func (a *Accounting) Tick(in []uint64) []uint64 {
	a.exception = false
	if img := a.rx.Push(byte(in[0]), in[1]&1 == 1); img != nil {
		a.meter(*img)
	}
	out := make([]uint64, 1)
	if a.exception {
		out[0] = 1
	}
	return out
}

func (a *Accounting) meter(img [atm.CellBytes]byte) {
	hdr, err := atm.ImageHeader(img)
	if err != nil {
		return // HEC-failed cells are invisible to the meter
	}
	if hdr.IsIdle() || hdr.IsUnassigned() {
		return
	}
	idx, ok := a.slots[hdr.VC()]
	if !ok {
		a.Unregistered++
		a.exception = true
		return
	}
	a.Observed++
	a.Cells[idx]++
	if hdr.CLP == 1 {
		a.CLP1[idx]++
	}
}
