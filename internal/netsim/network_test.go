package netsim

import (
	"math"
	"strings"
	"testing"

	"castanet/internal/sim"
)

// fixedGen emits at a constant interval.
type fixedGen struct{ d sim.Duration }

func (g fixedGen) Next(*sim.RNG) sim.Duration { return g.d }

func simplePacket(size int) PacketFactory {
	return func(ctx *Ctx, i uint64) Packet {
		return ctx.Net().NewPacket(i, size)
	}
}

func TestSourceToSink(t *testing.T) {
	n := New(1)
	src := &Source{Gen: fixedGen{sim.Millisecond}, Make: simplePacket(424), Limit: 10}
	sink := &Sink{}
	a := n.Node("src", src)
	b := n.Node("sink", sink)
	n.Connect(a, 0, b, 0, LinkParams{Delay: 5 * sim.Microsecond})
	n.Run(sim.Second)
	if sink.Received != 10 {
		t.Fatalf("received = %d, want 10", sink.Received)
	}
	// End-to-end delay = propagation only (infinite rate).
	if d := sink.Delay.Mean(); math.Abs(d-5e-6) > 1e-12 {
		t.Errorf("mean delay = %v, want 5us", d)
	}
	if src.Emitted != 10 {
		t.Errorf("emitted = %d", src.Emitted)
	}
}

func TestLinkTransmissionDelay(t *testing.T) {
	// 424-bit cell at 155.52 Mb/s takes ~2.726us to transmit.
	n := New(1)
	src := &Source{Gen: fixedGen{sim.Second}, Make: simplePacket(424), Limit: 1}
	sink := &Sink{}
	a := n.Node("src", src)
	b := n.Node("sink", sink)
	n.Connect(a, 0, b, 0, LinkParams{RateBps: 155.52e6})
	n.Run(10 * sim.Second)
	want := 424.0 / 155.52e6
	if d := sink.Delay.Mean(); math.Abs(d-want) > 1e-9 {
		t.Errorf("delay = %v, want %v", d, want)
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two packets sent back-to-back on a slow link: the second waits for
	// the first to finish transmitting.
	n := New(1)
	sink := &Sink{}
	var deliveries []sim.Time
	sink.OnPacket = func(ctx *Ctx, pkt Packet, port int) {
		deliveries = append(deliveries, ctx.Now())
	}
	send2 := &Func{OnInit: func(ctx *Ctx) {
		ctx.SetTimer(0, nil)
	}, OnTimer: func(ctx *Ctx, tag interface{}) {
		ctx.Send(ctx.Net().NewPacket(1, 1000), 0)
		ctx.Send(ctx.Net().NewPacket(2, 1000), 0)
	}}
	a := n.Node("a", send2)
	b := n.Node("b", sink)
	n.Connect(a, 0, b, 0, LinkParams{RateBps: 1e6}) // 1ms per 1000-bit pkt
	n.Run(sim.Second)
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	gap := deliveries[1] - deliveries[0]
	if gap != sim.Millisecond {
		t.Errorf("inter-delivery gap = %v, want 1ms (serialized)", gap)
	}
}

func TestQueueServiceAndDrop(t *testing.T) {
	n := New(1)
	// Source emits every 1ms; queue serves one per 10ms with capacity 3:
	// most packets drop.
	src := &Source{Gen: fixedGen{sim.Millisecond}, Make: simplePacket(0), Limit: 20}
	q := &Queue{Capacity: 3, ServiceTime: 10 * sim.Millisecond}
	sink := &Sink{}
	a := n.Node("src", src)
	b := n.Node("q", q)
	c := n.Node("sink", sink)
	n.Connect(a, 0, b, 0, LinkParams{})
	n.Connect(b, 0, c, 0, LinkParams{})
	n.Run(sim.Second)
	if q.Served+q.Dropped != 20 {
		t.Fatalf("served %d + dropped %d != 20", q.Served, q.Dropped)
	}
	if q.Dropped == 0 {
		t.Error("overloaded finite queue dropped nothing")
	}
	if sink.Received != q.Served {
		t.Errorf("sink %d != served %d", sink.Received, q.Served)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	n := New(1)
	src := &Source{Gen: fixedGen{sim.Microsecond}, Make: simplePacket(0), Limit: 50}
	q := &Queue{ServiceTime: 10 * sim.Microsecond}
	sink := &Sink{}
	var order []uint64
	sink.OnPacket = func(ctx *Ctx, pkt Packet, port int) {
		order = append(order, pkt.Data.(uint64))
	}
	a := n.Node("src", src)
	b := n.Node("q", q)
	c := n.Node("sink", sink)
	n.Connect(a, 0, b, 0, LinkParams{})
	n.Connect(b, 0, c, 0, LinkParams{})
	n.Run(sim.Second)
	if len(order) != 50 {
		t.Fatalf("received %d", len(order))
	}
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	n := New(1)
	n.Node("x", &Sink{})
	defer func() {
		if recover() == nil {
			t.Error("duplicate node name did not panic")
		}
	}()
	n.Node("x", &Sink{})
}

func TestSendUnconnectedPanics(t *testing.T) {
	n := New(1)
	bad := &Func{OnInit: func(ctx *Ctx) { ctx.SetTimer(0, nil) },
		OnTimer: func(ctx *Ctx, tag interface{}) {
			ctx.Send(ctx.Net().NewPacket(nil, 0), 3)
		}}
	n.Node("bad", bad)
	defer func() {
		if recover() == nil {
			t.Error("send on unconnected port did not panic")
		}
	}()
	n.Run(sim.Second)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		n := New(99)
		src := &Source{Gen: expGen{}, Make: simplePacket(424), Limit: 500}
		q := &Queue{RateBps: 2e6}
		sink := &Sink{}
		a := n.Node("src", src)
		b := n.Node("q", q)
		c := n.Node("sink", sink)
		n.Connect(a, 0, b, 0, LinkParams{})
		n.Connect(b, 0, c, 0, LinkParams{})
		n.Run(sim.Never)
		return sink.Received, sink.Delay.Mean()
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%v) vs (%d,%v)", r1, d1, r2, d2)
	}
}

type expGen struct{}

func (expGen) Next(r *sim.RNG) sim.Duration { return sim.FromSeconds(r.Exp(1e-3)) }

// TestArrivalAndTimerAllocFree pins the network's steady-state event
// path: a source's timer interrupt that sends a packet over a link and
// re-arms itself, followed by the packet's arrival at a sink, allocates
// nothing.
func TestArrivalAndTimerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the production ones")
	}
	n := New(1)
	payload := new(int)
	src := &Source{Gen: fixedGen{10 * sim.Microsecond}, Make: func(ctx *Ctx, i uint64) Packet {
		return ctx.Net().NewPacket(payload, 424)
	}}
	sink := &Sink{}
	a := n.Node("src", src)
	b := n.Node("sink", sink)
	n.Connect(a, 0, b, 0, LinkParams{Delay: 100 * sim.Nanosecond, RateBps: 155.52e6})
	n.Init()
	for i := 0; i < 16; i++ { // reach the event list's high-water mark
		n.Sched.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		n.Sched.Step() // timer: send, re-arm
		n.Sched.Step() // arrival at the sink
	})
	if allocs != 0 {
		t.Fatalf("arrival + timer re-arm allocates %v objects, want 0", allocs)
	}
	if sink.Received < 1000 {
		t.Fatalf("sink received %d packets, want at least 1000", sink.Received)
	}
}

// TestEqualTimeArrivalsAndTimersInScheduleOrder: arrivals and timer
// interrupts that fall due at the same instant run in the order they
// were scheduled, whichever kind they are, and a zero-delay timer set
// during the instant runs after everything already due then.
func TestEqualTimeArrivalsAndTimersInScheduleOrder(t *testing.T) {
	n := New(1)
	var got []string
	at := 10 * sim.Microsecond
	probe := &Func{
		OnInit: func(ctx *Ctx) { ctx.SetTimer(at, "timer a") },
		OnArrival: func(ctx *Ctx, pkt Packet, port int) {
			got = append(got, pkt.Data.(string))
			if pkt.Data == "arrival b" {
				ctx.SetTimer(0, "timer d")
			}
		},
		OnTimer: func(ctx *Ctx, tag interface{}) { got = append(got, tag.(string)) },
	}
	node := n.Node("probe", probe)
	n.Init()
	node.InjectAt(at, n.NewPacket("arrival b", 0), 0)
	node.InjectAt(at, n.NewPacket("arrival c", 0), 0)
	n.Run(sim.Second)
	want := "timer a,arrival b,arrival c,timer d"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("order %s, want %s", s, want)
	}
}
