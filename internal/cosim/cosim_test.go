package cosim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

const clkPeriod = 10 * sim.Nanosecond

// newLoopbackEntity builds an Entity around a minimal DUT: cells are
// serialized onto an 8-bit port, pass a one-cycle register stage, and are
// reassembled and emitted back, carrying trace ID Seq+1. δ is sized to
// one full cell (53 cycles) plus pipeline slack.
func newLoopbackEntity() *Entity {
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, clkPeriod)
	din := h.Signal("atmdata_in", 8, hdl.U)
	sin := h.Bit("cellsync_in", hdl.U)
	dout := h.Signal("atmdata_out", 8, hdl.U)
	sout := h.Bit("cellsync_out", hdl.U)

	// One-cycle register stage between writer and reader.
	dd := dout.Driver("pipe")
	ds := sout.Driver("pipe")
	h.Process("pipe", func() {
		if clk.Rising() {
			dd.Set(din.Val())
			ds.Set(sin.Val())
		}
	}, clk)

	w := mapping.NewCellPortWriter(h, "tx", clk, din, sin)
	r := mapping.NewCellPortReader(h, "rx", clk, dout, sout)

	e := NewEntity(h)
	r.OnCell = func(img [atm.CellBytes]byte, _ atm.Header) {
		e.EmitTraced(KindData, img[:], uint64(atm.Seq(img))+1)
	}
	e.Input(KindData, 60*clkPeriod, func(e *Entity, msg ipc.Message) error {
		img, err := atm.ParseImage(msg.Data)
		if err != nil {
			return err
		}
		w.Enqueue(img, 0)
		return nil
	})
	return e
}

func newRegistry() *mapping.Registry {
	reg := mapping.NewRegistry()
	reg.Register(KindData, mapping.CellCodec{})
	return reg
}

type cellGen struct{ gap sim.Duration }

func (g cellGen) Next(*sim.RNG) sim.Duration { return g.gap }

func runLoopback(t *testing.T, coupling Coupling, e *Entity, nCells int) []Response {
	t.Helper()
	n := netsim.New(7)
	var responses []Response
	iface := &InterfaceProcess{
		Coupling:  coupling,
		Registry:  newRegistry(),
		SyncEvery: 100 * sim.Microsecond,
		OnResponse: func(ctx *netsim.Ctx, r Response) {
			if r.HWTime > r.NetTime {
				t.Errorf("lag violated: hw %v > net %v", r.HWTime, r.NetTime)
			}
			responses = append(responses, r)
		},
	}
	src := &netsim.Source{
		Gen:   cellGen{2726 * sim.Nanosecond}, // one STM-1 cell slot
		Limit: uint64(nCells),
		Make: func(ctx *netsim.Ctx, i uint64) netsim.Packet {
			c := &atm.Cell{Header: atm.Header{VPI: byte(i % 4), VCI: uint16(100 + i%8)}, Seq: uint32(i)}
			c.StampSeq()
			return ctx.Net().NewPacket(c, atm.CellBytes*8)
		},
	}
	a := n.Node("src", src)
	b := n.Node("castanet", iface)
	n.Connect(a, 0, b, 0, netsim.LinkParams{})
	n.Run(sim.Time(nCells+40) * 2726 * sim.Nanosecond)
	return responses
}

func TestDirectLoopback(t *testing.T) {
	e := newLoopbackEntity()
	resps := runLoopback(t, &Direct{Entity: e}, e, 20)
	if len(resps) != 20 {
		t.Fatalf("responses = %d, want 20", len(resps))
	}
	for i, r := range resps {
		c := r.Value.(*atm.Cell)
		if c.Seq != uint32(i) {
			t.Errorf("response %d: seq %d", i, c.Seq)
		}
		if c.VPI != byte(i%4) || c.VCI != uint16(100+i%8) {
			t.Errorf("response %d: header %+v", i, c.Header)
		}
	}
	if e.CausalityErrors != 0 {
		t.Errorf("causality errors: %d", e.CausalityErrors)
	}
	if !e.LagInvariantHolds() {
		t.Error("lag invariant broken at end of run")
	}
	if e.Applied != 20 {
		t.Errorf("applied = %d", e.Applied)
	}
}

func TestRemoteLoopbackOverPipe(t *testing.T) {
	e := newLoopbackEntity()
	a, b := ipc.Pipe(16)
	srv := &EntityServer{Entity: e, Transport: b}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	resps := runLoopback(t, &Remote{Transport: a}, e, 20)
	a.Close()
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(resps) != 20 {
		t.Fatalf("responses = %d, want 20", len(resps))
	}
	for i, r := range resps {
		if r.Value.(*atm.Cell).Seq != uint32(i) {
			t.Fatalf("response %d out of order", i)
		}
	}
}

func TestDirectRemoteEquivalence(t *testing.T) {
	// The deployment (in-process vs message-passing) must not change the
	// verification outcome: identical cells, identical hardware times.
	e1 := newLoopbackEntity()
	r1 := runLoopback(t, &Direct{Entity: e1}, e1, 15)

	e2 := newLoopbackEntity()
	a, b := ipc.Pipe(16)
	go (&EntityServer{Entity: e2, Transport: b}).Serve()
	r2 := runLoopback(t, &Remote{Transport: a}, e2, 15)
	a.Close()

	if len(r1) != len(r2) {
		t.Fatalf("counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		c1 := r1[i].Value.(*atm.Cell)
		c2 := r2[i].Value.(*atm.Cell)
		if c1.Seq != c2.Seq || c1.Header != c2.Header {
			t.Errorf("response %d differs: %v vs %v", i, c1, c2)
		}
		if r1[i].HWTime != r2[i].HWTime {
			t.Errorf("response %d hardware time differs: %v vs %v", i, r1[i].HWTime, r2[i].HWTime)
		}
	}
}

func TestCausalityRejected(t *testing.T) {
	e := newLoopbackEntity()
	if err := e.Deliver(ipc.Message{Kind: ipc.KindSync, Time: 10 * sim.Microsecond}); err != nil {
		t.Fatal(err)
	}
	err := e.Deliver(ipc.Message{Kind: ipc.KindSync, Time: 5 * sim.Microsecond})
	if !errors.Is(err, ErrCausality) {
		t.Fatalf("err = %v, want causality violation", err)
	}
	if e.CausalityErrors != 1 {
		t.Errorf("CausalityErrors = %d", e.CausalityErrors)
	}
}

// TestEntityObserve: one handle reaches every sink the entity writes —
// counters, the traced message's entity.rx hop, the flight-recorder note
// of a rejected stamp and the lag coverage — and a nil handle observes
// nothing without panicking.
func TestEntityObserve(t *testing.T) {
	newLoopbackEntity().Observe(nil)
	run := obs.NewRun(0)
	run.Cells = obs.NewCellTracker(1, 0)
	run.Recorder = obs.NewTracer(obs.DefaultRecorderCap)
	e := newLoopbackEntity()
	e.Observe(run)
	if err := e.Deliver(ipc.Message{Kind: ipc.KindSync, Time: 10 * sim.Microsecond, Trace: 7}); err != nil {
		t.Fatal(err)
	}
	if err := e.Deliver(ipc.Message{Kind: ipc.KindSync, Time: 5 * sim.Microsecond, Trace: 9}); !errors.Is(err, ErrCausality) {
		t.Fatalf("err = %v, want causality violation", err)
	}
	if got := run.Registry.Counter("cosim.entity.causality_errors").Value(); got != 1 {
		t.Errorf("causality_errors counter = %d, want 1", got)
	}
	if tr, ok := run.Cells.Trace(7); !ok || tr.Hops[0].Name != obs.HopEntityRx {
		t.Errorf("traced message left no entity.rx hop: %+v", tr)
	}
	if dump := run.Recorder.Dump(); !strings.Contains(dump, "[entity] t=5.000us cell=0x9 causality violation") {
		t.Errorf("recorder dump lacks the causality note:\n%s", dump)
	}
	if snap := run.Cover.Snapshot(); len(snap) != 1 || snap[0].Name != "cosim.sync" {
		t.Errorf("cover groups = %+v, want cosim.sync", snap)
	}
}

func TestHDLNeverAheadOfHorizon(t *testing.T) {
	e := newLoopbackEntity()
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}}
	data, _ := (mapping.CellCodec{}).Encode(cell)
	for i := 1; i <= 50; i++ {
		at := sim.Time(i) * 3 * sim.Microsecond
		if err := e.Deliver(ipc.Message{Kind: KindData, Time: at, Data: data}); err != nil {
			t.Fatal(err)
		}
		if !e.LagInvariantHolds() {
			t.Fatalf("after message %d: hdl %v vs horizon %v", i, e.HDL.Now(), e.Now())
		}
	}
	if e.MaxLag <= 0 {
		t.Error("MaxLag not recorded")
	}
}

func TestEqualStampsAccepted(t *testing.T) {
	// Stamps equal to the horizon are legal ("for any future time, or the
	// current time but never for past times").
	e := newLoopbackEntity()
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}}
	data, _ := (mapping.CellCodec{}).Encode(cell)
	at := 5 * sim.Microsecond
	if err := e.Deliver(ipc.Message{Kind: KindData, Time: at, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := e.Deliver(ipc.Message{Kind: KindData, Time: at, Data: data}); err != nil {
		t.Fatalf("equal stamp rejected: %v", err)
	}
	if e.Applied != 2 {
		t.Errorf("applied = %d", e.Applied)
	}
}

func TestUndeclaredKind(t *testing.T) {
	e := newLoopbackEntity()
	err := e.Deliver(ipc.Message{Kind: ipc.KindUser + 5, Time: sim.Microsecond})
	if err == nil {
		t.Fatal("undeclared kind accepted")
	}
}

func TestSyncAdvancesIdleHardware(t *testing.T) {
	e := newLoopbackEntity()
	before := e.HDL.Now()
	if err := e.Deliver(ipc.Message{Kind: ipc.KindSync, Time: 50 * sim.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if e.HDL.Now() <= before {
		t.Error("sync message did not advance the hardware clock")
	}
	// Strictly smaller than the stamp: events at exactly 50us wait.
	if e.HDL.Now() >= 50*sim.Microsecond {
		t.Errorf("hardware ran to %v, beyond the granted window", e.HDL.Now())
	}
}

func TestWindowBoundedByDelta(t *testing.T) {
	e := newLoopbackEntity() // δ = 600ns
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}}
	data, _ := (mapping.CellCodec{}).Encode(cell)
	at := 20 * sim.Microsecond
	if err := e.Deliver(ipc.Message{Kind: KindData, Time: at, Data: data}); err != nil {
		t.Fatal(err)
	}
	if e.HDL.Now() > at+60*clkPeriod {
		t.Errorf("hardware at %v, beyond %v + δ", e.HDL.Now(), at)
	}
	if e.Windows != 1 {
		t.Errorf("windows = %d", e.Windows)
	}
}

func TestFlushDrainsPipeline(t *testing.T) {
	e := newLoopbackEntity()
	cell := &atm.Cell{Header: atm.Header{VPI: 2, VCI: 9}, Seq: 77}
	cell.StampSeq()
	data, _ := (mapping.CellCodec{}).Encode(cell)
	if err := e.Deliver(ipc.Message{Kind: KindData, Time: sim.Microsecond, Data: data}); err != nil {
		t.Fatal(err)
	}
	// δ (600ns) is shorter than a full cell (530ns) plus the pipeline, so
	// the response may still be in flight; Flush drains it.
	if err := e.Flush(100 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	out := e.TakeOutbox()
	if len(out) != 1 {
		t.Fatalf("outbox = %d messages, want 1", len(out))
	}
	v, err := (mapping.CellCodec{}).Decode(out[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*atm.Cell).Seq != 77 {
		t.Errorf("flushed cell = %v", v)
	}
}

func TestEntityInputValidation(t *testing.T) {
	e := NewEntity(hdl.New())
	e.Input(KindData, 0, nil)
	if e.Now() != 0 {
		t.Errorf("Now = %v before any message", e.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate input kind accepted")
			}
		}()
		e.Input(KindData, 0, nil)
	}()
	defer func() {
		if recover() == nil {
			t.Error("negative delta accepted")
		}
	}()
	e.Input(KindData+1, -1, nil)
}

func TestCouplingClose(t *testing.T) {
	d := &Direct{Entity: newLoopbackEntity()}
	if err := d.Close(); err != nil {
		t.Errorf("direct close: %v", err)
	}
	a, b := ipc.Pipe(1)
	r := &Remote{Transport: a}
	_ = b
	if err := r.Close(); err != nil {
		t.Errorf("remote close: %v", err)
	}
}

func TestInterfaceOnErrorHook(t *testing.T) {
	// An encode failure (packet payload of the wrong type) must hit the
	// OnError hook instead of panicking.
	e := newLoopbackEntity()
	var gotErr error
	iface := &InterfaceProcess{
		Coupling: &Direct{Entity: e},
		Registry: newRegistry(),
		OnError:  func(err error) { gotErr = err },
	}
	n := netsim.New(1)
	node := n.Node("iface", iface)
	n.Init()
	node.Inject(n.NewPacket("not a cell", 0), 0)
	n.Run(sim.Microsecond)
	if gotErr == nil {
		t.Fatal("encode failure not reported")
	}
}

func TestInterfaceDefaultResponseForwarding(t *testing.T) {
	// With no OnResponse handler, responses are re-injected as packets on
	// output port 0 when connected.
	e := newLoopbackEntity()
	iface := &InterfaceProcess{
		Coupling:  &Direct{Entity: e},
		Registry:  newRegistry(),
		SyncEvery: 50 * sim.Microsecond,
	}
	n := netsim.New(1)
	ifaceNode := n.Node("iface", iface)
	sink := &netsim.Sink{}
	sinkNode := n.Node("sink", sink)
	n.Connect(ifaceNode, 0, sinkNode, 0, netsim.LinkParams{})
	n.Init()
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 5}, Seq: 42}
	cell.StampSeq()
	ifaceNode.InjectAt(sim.Microsecond, n.NewPacket(cell, atm.CellBytes*8), 0)
	n.Run(sim.Millisecond)
	if sink.Received != 1 {
		t.Fatalf("forwarded responses = %d, want 1", sink.Received)
	}
}

func TestInterfaceUnregisteredResponseKindPassesRaw(t *testing.T) {
	// Responses with no registered codec surface as raw bytes.
	h := hdl.New()
	h.Clock(h.Bit("clk", hdl.U), clkPeriod)
	e := NewEntity(h)
	e.Input(KindData, clkPeriod, func(e *Entity, msg ipc.Message) error {
		e.Emit(ipc.KindUser+7, []byte{0xAB}) // kind with no codec
		return nil
	})
	var got interface{}
	iface := &InterfaceProcess{
		Coupling:   &Direct{Entity: e},
		Registry:   newRegistry(),
		OnResponse: func(ctx *netsim.Ctx, r Response) { got = r.Value },
	}
	n := netsim.New(1)
	node := n.Node("iface", iface)
	n.Init()
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}}
	node.InjectAt(sim.Microsecond, n.NewPacket(cell, atm.CellBytes*8), 0)
	n.Run(sim.Millisecond)
	raw, ok := got.([]byte)
	if !ok || len(raw) != 1 || raw[0] != 0xAB {
		t.Fatalf("raw response = %v", got)
	}
}

// stampCoupling answers its first unit with resps and every later unit
// with nothing.
type stampCoupling struct {
	resps []ipc.Message
	done  bool
}

func (c *stampCoupling) Exchange([]ipc.Message) ([]ipc.Message, error) {
	if c.done {
		return nil, nil
	}
	c.done = true
	return c.resps, nil
}

func (c *stampCoupling) Close() error { return nil }

// TestInterfaceDefersResponsesInStampOrder: responses stamped ahead of
// the network clock are delivered at their stamps, in stamp order and
// equal stamps in arrival order, even when one unit carries them out of
// order, as a late reply over a faulty link without the reliability
// envelope can.
func TestInterfaceDefersResponsesInStampOrder(t *testing.T) {
	raw := ipc.KindUser + 7 // no codec: the value is the payload
	c := &stampCoupling{resps: []ipc.Message{
		{Kind: raw, Time: 30 * sim.Nanosecond, Data: []byte{1}},
		{Kind: raw, Time: 10 * sim.Nanosecond, Data: []byte{2}},
		{Kind: raw, Time: 30 * sim.Nanosecond, Data: []byte{3}},
		{Kind: raw, Time: 10 * sim.Nanosecond, Data: []byte{4}},
		{Kind: raw, Time: 20 * sim.Nanosecond, Data: []byte{5}},
	}}
	var got []string
	iface := &InterfaceProcess{
		Coupling: c,
		Registry: newRegistry(),
		OnResponse: func(ctx *netsim.Ctx, r Response) {
			got = append(got, fmt.Sprintf("%d@%dps", r.Value.([]byte)[0], int64(ctx.Now())))
		},
	}
	n := netsim.New(1)
	n.Node("iface", iface)
	n.Run(sim.Microsecond)
	want := "2@10000ps 4@10000ps 5@20000ps 1@30000ps 3@30000ps"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("deliveries %s, want %s", s, want)
	}
}
