package refmodel

import (
	"strings"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/netsim"
	"castanet/internal/sim"
)

func refTable() *atm.Translator {
	tb := atm.NewTranslator()
	tb.Add(atm.VC{VPI: 1, VCI: 100}, atm.Route{Port: 2, Out: atm.VC{VPI: 9, VCI: 900}})
	tb.Add(atm.VC{VPI: 1, VCI: 101}, atm.Route{Port: 0, Out: atm.VC{VPI: 9, VCI: 901}})
	return tb
}

func TestSwitchRefForwardsAndTranslates(t *testing.T) {
	n := netsim.New(1)
	ref := &SwitchRef{Table: refTable()}
	var got []*atm.Cell
	var gotPorts []int
	ref.OnForward = func(ctx *netsim.Ctx, port int, c *atm.Cell) {
		got = append(got, c)
		gotPorts = append(gotPorts, port)
	}
	node := n.Node("sw", ref)
	sinks := make([]*netsim.Sink, 4)
	for p := 0; p < 4; p++ {
		sinks[p] = &netsim.Sink{}
		out := n.Node(string(rune('a'+p)), sinks[p])
		n.Connect(node, p, out, 0, netsim.LinkParams{})
	}
	n.Init()
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 100, PTI: 2, CLP: 1}, Seq: 5}
	node.Inject(n.NewPacket(cell, 424), 0)
	n.Run(sim.Millisecond)
	if len(got) != 1 || gotPorts[0] != 2 {
		t.Fatalf("forwarded %d cells to %v", len(got), gotPorts)
	}
	c := got[0]
	if c.VPI != 9 || c.VCI != 900 {
		t.Errorf("translation = %v", c.VC())
	}
	if c.PTI != 2 || c.CLP != 1 {
		t.Errorf("PTI/CLP not preserved: %d/%d", c.PTI, c.CLP)
	}
	if sinks[2].Received != 1 {
		t.Errorf("sink 2 received %d", sinks[2].Received)
	}
	// Original cell must not be mutated (the model clones).
	if cell.VPI != 1 {
		t.Error("input cell mutated")
	}
}

func TestSwitchRefUnknownAndIdle(t *testing.T) {
	n := netsim.New(1)
	ref := &SwitchRef{Table: refTable()}
	node := n.Node("sw", ref)
	n.Init()
	node.Inject(n.NewPacket(&atm.Cell{Header: atm.Header{VPI: 7, VCI: 7}}, 424), 0)
	node.Inject(n.NewPacket(atm.IdleCell(), 424), 0)
	n.Run(sim.Millisecond)
	if ref.UnknownVC != 1 {
		t.Errorf("UnknownVC = %d, want 1 (idle cells are not unknown)", ref.UnknownVC)
	}
}

func TestSwitchRefLatency(t *testing.T) {
	n := netsim.New(1)
	ref := &SwitchRef{Table: refTable(), Latency: 10 * sim.Microsecond}
	node := n.Node("sw", ref)
	sink := &netsim.Sink{}
	var at sim.Time
	sink.OnPacket = func(ctx *netsim.Ctx, pkt netsim.Packet, port int) { at = ctx.Now() }
	out := n.Node("out", sink)
	n.Connect(node, 2, out, 0, netsim.LinkParams{})
	n.Init()
	node.InjectAt(5*sim.Microsecond, n.NewPacket(&atm.Cell{Header: atm.Header{VPI: 1, VCI: 100}}, 424), 0)
	n.Run(sim.Millisecond)
	if at != 15*sim.Microsecond {
		t.Errorf("delivery at %v, want 15us", at)
	}
}

func TestComparatorCleanPath(t *testing.T) {
	cmp := NewComparator()
	c := &atm.Cell{Header: atm.Header{VPI: 9, VCI: 900}, Seq: 1}
	cmp.Expect(2, c)
	cmp.Actual(2, c.Clone())
	if !cmp.Clean() || cmp.Matched != 1 {
		t.Fatalf("clean match failed: %s", cmp.Summary())
	}
}

func TestComparatorDetectsEverything(t *testing.T) {
	base := &atm.Cell{Header: atm.Header{VPI: 9, VCI: 900}, Seq: 1}

	// Wrong port.
	cmp := NewComparator()
	cmp.Expect(2, base)
	cmp.Actual(1, base.Clone())
	if len(cmp.Mismatches()) != 1 || cmp.Mismatches()[0].Kind != MismatchPort {
		t.Errorf("port: %v", cmp.Mismatches())
	}

	// Wrong header.
	cmp = NewComparator()
	cmp.Expect(2, base)
	bad := base.Clone()
	bad.VCI = 901
	cmp.Actual(2, bad)
	if len(cmp.Mismatches()) != 1 || cmp.Mismatches()[0].Kind != MismatchHeader {
		t.Errorf("header: %v", cmp.Mismatches())
	}

	// Wrong payload.
	cmp = NewComparator()
	cmp.Expect(2, base)
	bad = base.Clone()
	bad.Payload[17] ^= 1
	cmp.Actual(2, bad)
	if len(cmp.Mismatches()) != 1 || cmp.Mismatches()[0].Kind != MismatchPayload {
		t.Errorf("payload: %v", cmp.Mismatches())
	}

	// Unexpected cell.
	cmp = NewComparator()
	cmp.Actual(0, base.Clone())
	if len(cmp.Mismatches()) != 1 || cmp.Mismatches()[0].Kind != MismatchUnexpected {
		t.Errorf("unexpected: %v", cmp.Mismatches())
	}

	// Duplicate delivery.
	cmp = NewComparator()
	cmp.Expect(2, base)
	cmp.Actual(2, base.Clone())
	cmp.Actual(2, base.Clone())
	if len(cmp.Mismatches()) != 1 || cmp.Mismatches()[0].Kind != MismatchDuplicate {
		t.Errorf("duplicate: %v", cmp.Mismatches())
	}
}

func TestComparatorOutstanding(t *testing.T) {
	cmp := NewComparator()
	for i := uint32(0); i < 5; i++ {
		cmp.Expect(0, &atm.Cell{Seq: i})
	}
	cmp.Actual(0, &atm.Cell{Seq: 2})
	out := cmp.Outstanding()
	if len(out) != 4 {
		t.Fatalf("outstanding = %v", out)
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatal("outstanding not sorted")
		}
	}
	if cmp.Clean() {
		t.Error("Clean with outstanding cells")
	}
}

func TestMismatchKindStrings(t *testing.T) {
	for k := MismatchHeader; k <= MismatchDuplicate; k++ {
		if k.String() == "?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	m := Mismatch{Kind: MismatchPort, Seq: 3, Detail: "routed wrong"}
	if !strings.Contains(m.String(), "port") || !strings.Contains(m.String(), "seq=3") {
		t.Errorf("mismatch string = %q", m)
	}
}

func TestAccountingRefObserves(t *testing.T) {
	n := netsim.New(1)
	acct := atm.NewAccounting(atm.Tariff{CellsPerUnit: 2})
	vc := atm.VC{VPI: 1, VCI: 5}
	acct.Register(vc)
	node := n.Node("acct", &AccountingRef{Acct: acct})
	n.Init()
	for i := 0; i < 5; i++ {
		node.Inject(n.NewPacket(&atm.Cell{Header: atm.Header{VPI: 1, VCI: 5}}, 424), 0)
	}
	n.Run(sim.Millisecond)
	rec, _ := acct.Record(vc)
	if rec.Cells != 5 {
		t.Errorf("cells = %d", rec.Cells)
	}
	if acct.Units(vc) != 2 {
		t.Errorf("units = %d", acct.Units(vc))
	}
}

func TestPolicerRefDecisions(t *testing.T) {
	n := netsim.New(1)
	ref := NewPolicerRef(false)
	vc := atm.VC{VPI: 4, VCI: 44}
	ref.Contract(vc, 100*sim.Microsecond, 0)
	var passed []uint32
	ref.OnForward = func(ctx *netsim.Ctx, c *atm.Cell) { passed = append(passed, c.Seq) }
	node := n.Node("upc", ref)
	n.Init()
	// Three cells: 0 at t=0 conforms, 1 at t=50us violates, 2 at t=150us
	// conforms (TAT advanced to 100us by cell 0 only).
	times := []sim.Time{0, 50 * sim.Microsecond, 150 * sim.Microsecond}
	for i, at := range times {
		node.InjectAt(at, n.NewPacket(&atm.Cell{Header: atm.Header{VPI: 4, VCI: 44}, Seq: uint32(i)}, 424), 0)
	}
	n.Run(sim.Millisecond)
	if ref.Conforming != 2 || ref.NonConforming != 1 || ref.Discarded != 1 {
		t.Errorf("decisions: conf=%d viol=%d disc=%d", ref.Conforming, ref.NonConforming, ref.Discarded)
	}
	if len(passed) != 2 || passed[0] != 0 || passed[1] != 2 {
		t.Errorf("passed = %v", passed)
	}
}

func TestPolicerRefTagging(t *testing.T) {
	n := netsim.New(1)
	ref := NewPolicerRef(true)
	vc := atm.VC{VPI: 4, VCI: 44}
	ref.Contract(vc, 100*sim.Microsecond, 0)
	var clps []byte
	ref.OnForward = func(ctx *netsim.Ctx, c *atm.Cell) { clps = append(clps, c.CLP) }
	node := n.Node("upc", ref)
	n.Init()
	node.InjectAt(0, n.NewPacket(&atm.Cell{Header: atm.Header{VPI: 4, VCI: 44}}, 424), 0)
	node.InjectAt(sim.Microsecond, n.NewPacket(&atm.Cell{Header: atm.Header{VPI: 4, VCI: 44}}, 424), 0)
	n.Run(sim.Millisecond)
	if len(clps) != 2 || clps[0] != 0 || clps[1] != 1 {
		t.Errorf("clps = %v (violator must be tagged)", clps)
	}
	if ref.Tagged != 1 {
		t.Errorf("Tagged = %d", ref.Tagged)
	}
}
