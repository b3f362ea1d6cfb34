package mapping

import (
	"testing"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/sim"
)

func TestCellCodecRoundTrip(t *testing.T) {
	c := &atm.Cell{Header: atm.Header{VPI: 3, VCI: 300, PTI: 1}, Seq: 42}
	c.StampSeq() // the codec transports payloads verbatim; stamping is explicit
	var cc CellCodec
	data, err := cc.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != atm.CellBytes {
		t.Fatalf("encoded %d bytes", len(data))
	}
	v, err := cc.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*atm.Cell)
	if got.Header != c.Header || got.Seq != 42 {
		t.Fatalf("round trip = %v", got)
	}
}

func TestCellCodecRejects(t *testing.T) {
	var cc CellCodec
	if _, err := cc.Encode("not a cell"); err == nil {
		t.Error("bad type accepted")
	}
	if _, err := cc.Decode(make([]byte, 10)); err == nil {
		t.Error("short payload accepted")
	}
	// Corrupt HEC.
	c := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}}
	data, _ := cc.Encode(c)
	data[4] ^= 0xFF
	if _, err := cc.Decode(data); err == nil {
		t.Error("corrupt HEC accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(ipc.KindUser, CellCodec{})
	r.Register(ipc.KindUser+1, BytesCodec{})
	if _, ok := r.Lookup(ipc.KindUser); !ok {
		t.Fatal("lookup failed")
	}
	if _, err := r.Encode(ipc.KindUser+9, nil); err == nil {
		t.Error("unknown kind encoded")
	}
	if _, err := r.Decode(ipc.KindUser+9, nil); err == nil {
		t.Error("unknown kind decoded")
	}
	b, err := r.Encode(ipc.KindUser+1, []byte{1, 2, 3})
	if err != nil || len(b) != 3 {
		t.Fatalf("bytes encode = %v %v", b, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Register(ipc.KindUser, CellCodec{})
}

// buildLoop wires a writer directly to a reader through shared signals —
// the minimal Fig.-4 structure.
func buildLoop(t *testing.T) (*hdl.Simulator, *CellPortWriter, *CellPortReader, *[]*atm.Cell) {
	t.Helper()
	s := hdl.New()
	clk := s.Bit("clk", hdl.U)
	data := s.Signal("atmdata", 8, hdl.U)
	csync := s.Bit("cellsync", hdl.U)
	s.Clock(clk, 10*sim.Nanosecond)
	w := NewCellPortWriter(s, "tx", clk, data, csync)
	r := NewCellPortReader(s, "rx", clk, data, csync)
	r.SkipIdle = true
	var got []*atm.Cell
	r.OnCell = func(c *atm.Cell) { got = append(got, c) }
	return s, w, r, &got
}

func TestCellPortTransfer(t *testing.T) {
	s, w, r, got := buildLoop(t)
	cells := []*atm.Cell{
		{Header: atm.Header{VPI: 1, VCI: 100, PTI: 0}, Seq: 0},
		{Header: atm.Header{VPI: 2, VCI: 200, PTI: 1, CLP: 1}, Seq: 1},
		{Header: atm.Header{VPI: 3, VCI: 300, PTI: 2}, Seq: 2},
	}
	for _, c := range cells {
		c.StampSeq()
		w.Enqueue(c)
	}
	// 3 cells * 53 cycles * 10ns + slack.
	if err := s.Run(3*53*10*sim.Nanosecond + 200*sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 3 {
		t.Fatalf("received %d cells, want 3", len(*got))
	}
	for i, c := range *got {
		if c.Header != cells[i].Header || c.Seq != cells[i].Seq {
			t.Errorf("cell %d = %v, want %v", i, c, cells[i])
		}
	}
	if w.SentCells != 3 || r.Received != 3 || r.Errors != 0 {
		t.Errorf("counts: sent=%d recv=%d err=%d", w.SentCells, r.Received, r.Errors)
	}
}

func TestCellPortTiming(t *testing.T) {
	// A cell must take exactly 53 clock cycles: with a 10ns clock the gap
	// between two consecutive deliveries of back-to-back cells is 530ns.
	s := hdl.New()
	clk := s.Bit("clk", hdl.U)
	data := s.Signal("atmdata", 8, hdl.U)
	csync := s.Bit("cellsync", hdl.U)
	s.Clock(clk, 10*sim.Nanosecond)
	w := NewCellPortWriter(s, "tx", clk, data, csync)
	rd := NewCellPortReader(s, "rx", clk, data, csync)
	var times []sim.Time
	rd.OnCell = func(c *atm.Cell) { times = append(times, s.Now()) }
	for i := 0; i < 3; i++ {
		c := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}, Seq: uint32(i)}
		c.StampSeq()
		w.Enqueue(c)
	}
	if err := s.Run(2 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("got %d cells", len(times))
	}
	if d := times[1] - times[0]; d != 530*sim.Nanosecond {
		t.Errorf("inter-cell time = %v, want 530ns (53 cycles x 10ns)", d)
	}
	if d := times[2] - times[1]; d != 530*sim.Nanosecond {
		t.Errorf("inter-cell time = %v, want 530ns", d)
	}
}

func TestCellPortIdleInsertion(t *testing.T) {
	s, w, r, got := buildLoop(t)
	// A continuously framed line: idle-cell images around one user cell.
	idle := atm.IdleCell().Marshal()
	w.EnqueueRaw(idle)
	w.Enqueue(&atm.Cell{Header: atm.Header{VPI: 1, VCI: 7}, Seq: 9})
	w.EnqueueRaw(idle)
	w.EnqueueRaw(idle)
	if err := s.Run(5 * 530 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("user cells = %d, want 1 (idles skipped)", len(*got))
	}
	if r.Idles != 3 {
		t.Errorf("idle cells observed = %d, want 3", r.Idles)
	}
	// Line is continuously framed: received = user + idle cells.
	if r.Received != 1+r.Idles {
		t.Errorf("received=%d, idles=%d", r.Received, r.Idles)
	}
}

func TestCellPortCorruptionDetected(t *testing.T) {
	// Corrupt the data line mid-cell with an extra driver forcing X.
	s := hdl.New()
	clk := s.Bit("clk", hdl.U)
	data := s.Signal("atmdata", 8, hdl.U)
	csync := s.Bit("cellsync", hdl.U)
	s.Clock(clk, 10*sim.Nanosecond)
	w := NewCellPortWriter(s, "tx", clk, data, csync)
	r := NewCellPortReader(s, "rx", clk, data, csync)
	errs := 0
	r.OnError = func(img [atm.CellBytes]byte, err error) { errs++ }
	w.Enqueue(&atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}})
	// Interfering driver glitches the bus during octet ~10.
	saboteur := data.Driver("saboteur")
	saboteur.Set(hdl.NewLV(8, hdl.Z))
	s.Schedule(100*sim.Nanosecond, func() { saboteur.Set(hdl.NewLV(8, hdl.L0)) })
	s.Schedule(120*sim.Nanosecond, func() { saboteur.Set(hdl.NewLV(8, hdl.Z)) })
	if err := s.Run(sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if errs == 0 && r.Received != 0 {
		// Contention produced either X (abort) or a corrupted byte that
		// fails HEC only if it hit the header. Either way the reader must
		// not deliver a clean wrong cell silently when header bytes were
		// hit; with payload corruption HEC passes by design.
		t.Log("corruption hit payload only; HEC correctly ignores payload")
	}
	if r.Errors != uint64(errs) {
		t.Errorf("error count mismatch: %d vs %d", r.Errors, errs)
	}
}
