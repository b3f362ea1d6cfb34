package netsim

import (
	"strings"
	"testing"

	"castanet/internal/sim"
)

func TestProbeSummaryAndSeries(t *testing.T) {
	p := &Probe{Name: "delay", Capture: 8}
	for i := 1; i <= 10; i++ {
		p.Record(sim.Time(i)*sim.Microsecond, float64(i))
	}
	if p.Stats().N() != 10 {
		t.Fatalf("n = %d", p.Stats().N())
	}
	if p.Stats().Mean() != 5.5 {
		t.Errorf("mean = %v", p.Stats().Mean())
	}
	if len(p.Series()) != 8 {
		t.Errorf("series capped at %d, want 8", len(p.Series()))
	}
	if s := p.Series()[0]; s.At != sim.Microsecond || s.Value != 1 {
		t.Errorf("first sample = %+v", s)
	}
}

func TestProbeSetReport(t *testing.T) {
	set := NewProbeSet()
	set.Get("b.second").Record(0, 2)
	set.Get("a.first").Record(0, 1)
	if same := set.Get("a.first"); same != set.Get("a.first") {
		t.Fatal("Get not idempotent")
	}
	var buf strings.Builder
	if err := set.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a.first") || !strings.Contains(out, "b.second") {
		t.Errorf("report:\n%s", out)
	}
	// Sorted output: a.first before b.second.
	if strings.Index(out, "a.first") > strings.Index(out, "b.second") {
		t.Error("report not sorted")
	}
}

func TestInstrumentSink(t *testing.T) {
	n := New(1)
	set := NewProbeSet()
	src := &Source{Gen: fixedGen{sim.Millisecond}, Make: simplePacket(424), Limit: 10}
	sink := &Sink{}
	var viaPrev int
	sink.OnPacket = func(ctx *Ctx, pkt *Packet, port int) { viaPrev++ }
	InstrumentSink(sink, set, "port0")
	a := n.Node("src", src)
	b := n.Node("sink", sink)
	n.Connect(a, 0, b, 0, LinkParams{Delay: 7 * sim.Microsecond})
	n.Run(sim.Second)
	d := set.Get("port0.delay").Stats()
	if d.N() != 10 {
		t.Fatalf("delay samples = %d", d.N())
	}
	if d.Mean() < 6.9e-6 || d.Mean() > 7.1e-6 {
		t.Errorf("delay mean = %v", d.Mean())
	}
	if s := set.Get("port0.size").Stats(); s.Mean() != 424 {
		t.Errorf("size mean = %v", s.Mean())
	}
	if viaPrev != 10 {
		t.Errorf("previous OnPacket displaced: %d", viaPrev)
	}
}

func TestInstrumentQueue(t *testing.T) {
	n := New(1)
	set := NewProbeSet()
	src := &Source{Gen: fixedGen{sim.Millisecond}, Make: simplePacket(0), Limit: 50}
	q := &Queue{ServiceTime: 3 * sim.Millisecond, Capacity: 2}
	sink := &Sink{}
	a := n.Node("src", src)
	b := n.Node("q", q)
	c := n.Node("sink", sink)
	n.Connect(a, 0, b, 0, LinkParams{})
	n.Connect(b, 0, c, 0, LinkParams{})
	InstrumentQueue(n, q, set, "q0", 5*sim.Millisecond)
	n.Run(200 * sim.Millisecond)
	occ := set.Get("q0.occupancy").Stats()
	if occ.N() == 0 {
		t.Fatal("no occupancy samples")
	}
	if occ.Max() > 2 {
		t.Errorf("occupancy max %v exceeds capacity", occ.Max())
	}
	drops := set.Get("q0.drops").Stats()
	if drops.Max() == 0 {
		t.Error("overloaded queue recorded no drops")
	}
}
