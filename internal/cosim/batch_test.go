package cosim

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"castanet/internal/atm"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/netsim"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// perMessage is the reference coupling of the equivalence tests: it
// exchanges every unit one message at a time.
type perMessage struct{ Coupling }

func (c perMessage) Exchange(msgs []ipc.Message) ([]ipc.Message, error) {
	var out []ipc.Message
	for i := range msgs {
		r, err := c.Coupling.Exchange(msgs[i : i+1])
		if err != nil {
			return nil, err
		}
		out = append(out, r...)
	}
	return out, nil
}

// unitLog records the size of every unit that crosses it.
type unitLog struct {
	Coupling
	sizes []int
}

func (c *unitLog) Exchange(msgs []ipc.Message) ([]ipc.Message, error) {
	c.sizes = append(c.sizes, len(msgs))
	return c.Coupling.Exchange(msgs)
}

// burstGen spaces cells by an arbitrary gap sequence, including zero
// gaps that pile several arrivals into one network instant — the case
// the δ-window coalescing exists for.
type burstGen struct {
	gaps []byte
	i    int
}

func (g *burstGen) Next(*sim.RNG) sim.Duration {
	if len(g.gaps) == 0 {
		return sim.Microsecond
	}
	d := sim.Duration(g.gaps[g.i%len(g.gaps)]%8) * 700 * sim.Nanosecond
	g.i++
	return d
}

// runBurst drives the loopback behind c from sources identical sources
// with the given inter-cell gaps, so every emission instant carries one
// cell per source, and returns the observed response stream. Source k
// numbers its cells from 1000k.
func runBurst(t *testing.T, c Coupling, gaps []byte, sources int) []Response {
	t.Helper()
	n := netsim.New(3)
	var responses []Response
	iface := &InterfaceProcess{
		Coupling:  c,
		Registry:  newRegistry(),
		SyncEvery: 50 * sim.Microsecond,
		OnResponse: func(ctx *netsim.Ctx, r Response) {
			if r.HWTime > r.NetTime {
				t.Errorf("lag violated: hw %v > net %v", r.HWTime, r.NetTime)
			}
			responses = append(responses, r)
		},
	}
	nb := n.Node("castanet", iface)
	for k := 0; k < sources; k++ {
		base := uint32(1000 * k)
		src := &netsim.Source{
			Gen:   &burstGen{gaps: gaps},
			Limit: uint64(len(gaps)),
			Make: func(ctx *netsim.Ctx, i uint64) netsim.Packet {
				c := &atm.Cell{Header: atm.Header{VPI: byte(i % 4), VCI: uint16(100 + i%8)}, Seq: base + uint32(i)}
				c.StampSeq()
				return ctx.Net().NewPacket(c, atm.CellBytes*8)
			},
		}
		n.Connect(n.Node(fmt.Sprintf("src%d", k), src), 0, nb, k, netsim.LinkParams{})
	}
	n.Run(sim.Time(sources*len(gaps)+40) * 6 * sim.Microsecond)
	if err := iface.Err(); err != nil {
		t.Fatalf("coupling failed: %v", err)
	}
	return responses
}

// remoteLoopback serves a fresh loopback entity over a pipe and returns
// the entity, the client coupling and a closer.
func remoteLoopback() (*Entity, *Remote, func()) {
	e := newLoopbackEntity()
	a, b := ipc.Pipe(16)
	go (&EntityServer{Entity: e, Transport: b}).Serve()
	return e, &Remote{Transport: a}, func() { a.Close() }
}

// burstGaps spaces the emission instants of runBurst: back-to-back
// instants and pauses.
var burstGaps = []byte{1, 0, 0, 7, 0, 0, 7, 0, 7, 0, 0, 0, 0, 7, 7, 0, 0, 7, 0, 0}

// checkCoalesced requires one response per cell of three sources, each
// source's in order, and units that carried whole three-cell instants.
func checkCoalesced(t *testing.T, resps []Response, log *unitLog) {
	t.Helper()
	if len(resps) != 3*len(burstGaps) {
		t.Fatalf("responses = %d, want %d", len(resps), 3*len(burstGaps))
	}
	var next [3]uint32
	for i, r := range resps {
		seq := r.Value.(*atm.Cell).Seq
		k := seq / 1000
		if k >= 3 || seq%1000 != next[k] {
			t.Fatalf("response %d: seq %d out of order", i, seq)
		}
		next[k]++
	}
	max := 0
	for _, n := range log.sizes {
		if n > max {
			max = n
		}
	}
	if max < 3 {
		t.Errorf("largest unit carried %d messages; an instant's cells must travel as one unit", max)
	}
}

func TestBatchedDirectLoopback(t *testing.T) {
	e := newLoopbackEntity()
	log := &unitLog{Coupling: &Direct{Entity: e}}
	checkCoalesced(t, runBurst(t, log, burstGaps, 3), log)
	if e.CausalityErrors != 0 {
		t.Errorf("causality errors: %d", e.CausalityErrors)
	}
	if !e.LagInvariantHolds() {
		t.Error("lag invariant broken at end of run")
	}
}

func TestBatchedRemoteLoopback(t *testing.T) {
	_, r, closer := remoteLoopback()
	defer closer()
	log := &unitLog{Coupling: r}
	checkCoalesced(t, runBurst(t, log, burstGaps, 3), log)
}

// window is one coupling unit of the equivalence property: cells stamped
// within one δ-window, optionally closed by a sync.
type window []ipc.Message

// randomWindows builds non-decreasing windows from quick-generated
// shapes: sizes[i]%4 cells per window, gaps[i] advancing the clock, syncs
// closing windows (an empty window is a lone sync). Every cell carries a
// trace ID, so the property covers trace propagation too.
func randomWindows(gaps, sizes []uint8, syncs []bool) []window {
	var out []window
	now := sim.Time(0)
	seq := uint32(0)
	for i, sz := range sizes {
		if i < len(gaps) {
			now += sim.Duration(gaps[i]) * 50 * sim.Nanosecond
		}
		var w window
		for j := 0; j < int(sz%4); j++ {
			c := &atm.Cell{Header: atm.Header{VPI: byte(seq % 4), VCI: uint16(100 + seq%8)}, Seq: seq}
			c.StampSeq()
			data, _ := (mapping.CellCodec{}).Encode(c)
			w = append(w, ipc.Message{Kind: KindData, Time: now, Data: data, Trace: uint64(seq) + 1})
			seq++
			now += sim.Nanosecond
		}
		if len(w) == 0 || (i < len(syncs) && syncs[i]) {
			w = append(w, ipc.Message{Kind: ipc.KindSync, Time: now})
		}
		out = append(out, w)
	}
	// A final sync drains the pipeline so every cell comes back.
	return append(out, window{{Kind: ipc.KindSync, Time: now + 30*sim.Microsecond}})
}

// entityState is everything the equivalence compares on the entity.
type entityState struct {
	Received, Applied, Windows, CausalityErrors uint64
	MaxLag                                      sim.Duration
	HDLNow                                      sim.Time
	Lagging                                     bool
}

func stateOf(e *Entity) entityState {
	return entityState{e.Received, e.Applied, e.Windows, e.CausalityErrors, e.MaxLag, e.HDL.Now(), e.LagInvariantHolds()}
}

// exchangeAll drives ws through c, one Exchange per window, and returns
// every response in order.
func exchangeAll(t *testing.T, c Coupling, ws []window) []ipc.Message {
	t.Helper()
	var out []ipc.Message
	for _, w := range ws {
		r, err := c.Exchange(w)
		if err != nil {
			t.Fatalf("exchange: %v", err)
		}
		out = append(out, r...)
	}
	return out
}

// TestBatchedEqualsUnbatched pins the unit protocol's safety claim: for
// random message windows, one Exchange per window and one Exchange per
// message produce identical responses (kind, stamp, trace, payload),
// identical entity counters and identical lag — on Direct, and on Remote
// over Reliable(pipe).
func TestBatchedEqualsUnbatched(t *testing.T) {
	direct := func() (*Entity, Coupling, func()) {
		e := newLoopbackEntity()
		return e, &Direct{Entity: e}, func() {}
	}
	reliable := func() (*Entity, Coupling, func()) {
		e := newLoopbackEntity()
		a, b := ipc.Pipe(16)
		go (&EntityServer{Entity: e, Transport: ipc.NewReliable(b, ipc.ReliableConfig{})}).Serve()
		client := ipc.NewReliable(a, ipc.ReliableConfig{})
		return e, &Remote{Transport: client}, func() { client.Close() }
	}
	for name, build := range map[string]func() (*Entity, Coupling, func()){"direct": direct, "remote-reliable": reliable} {
		t.Run(name, func(t *testing.T) {
			f := func(gaps, sizes []uint8, syncs []bool) bool {
				if len(sizes) > 16 {
					sizes = sizes[:16]
				}
				ws := randomWindows(gaps, sizes, syncs)
				eu, cu, closeU := build()
				defer closeU()
				em, cm, closeM := build()
				defer closeM()
				units := exchangeAll(t, cu, ws)
				msgs := exchangeAll(t, perMessage{cm}, ws)
				if len(units) != len(msgs) {
					t.Logf("%d responses per unit, %d per message", len(units), len(msgs))
					return false
				}
				for i := range units {
					u, m := units[i], msgs[i]
					if u.Kind != m.Kind || u.Time != m.Time || u.Trace != m.Trace || !bytes.Equal(u.Data, m.Data) {
						t.Logf("response %d: %v per unit, %v per message", i, u, m)
						return false
					}
				}
				if su, sm := stateOf(eu), stateOf(em); su != sm {
					t.Logf("entity state %+v per unit, %+v per message", su, sm)
					return false
				}
				if ru, ok := cu.(*Remote); ok && ru.PeerTime != cm.(*Remote).PeerTime {
					t.Logf("peer time %d per unit, %d per message", ru.PeerTime, cm.(*Remote).PeerTime)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: for ANY burst pattern — including many cells sharing one
// network instant — the interface process observes exactly the event
// ordering and stamps through whole-window units that it does when every
// unit is split into single-message exchanges. δ_j semantics and the
// HDL-lags-network invariant are checked inside the run.
func TestBatchedOrderingProperty(t *testing.T) {
	f := func(gaps []byte) bool {
		if len(gaps) > 24 {
			gaps = gaps[:24]
		}
		if len(gaps) == 0 {
			return true
		}
		_, r1, close1 := remoteLoopback()
		defer close1()
		_, r2, close2 := remoteLoopback()
		defer close2()
		split := runBurst(t, perMessage{r1}, gaps, 2)
		whole := runBurst(t, r2, gaps, 2)
		if len(split) != len(whole) {
			return false
		}
		for i := range split {
			p, q := split[i], whole[i]
			if p.Value.(*atm.Cell).Seq != q.Value.(*atm.Cell).Seq ||
				p.HWTime != q.HWTime || p.NetTime != q.NetTime || p.Kind != q.Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedReliableFaultStack proves the unit survives the resilient
// stack: one envelope per δ-window, acks covering whole units, drops
// recovered by retransmission.
func TestBatchedReliableFaultStack(t *testing.T) {
	e := newLoopbackEntity()
	a, b := ipc.Pipe(64)
	client := ipc.NewReliable(ipc.NewFault(a, ipc.FaultConfig{
		Seed: 11,
		Send: ipc.DirFaults{Drop: 0.05},
		Recv: ipc.DirFaults{Drop: 0.05},
	}), ipc.ReliableConfig{})
	server := ipc.NewReliable(b, ipc.ReliableConfig{})
	go (&EntityServer{Entity: e, Transport: server}).Serve()
	resps := runLoopback(t, &Remote{Transport: client}, e, 20)
	client.Close()
	if len(resps) != 20 {
		t.Fatalf("responses = %d, want 20", len(resps))
	}
	for i, r := range resps {
		if r.Value.(*atm.Cell).Seq != uint32(i) {
			t.Fatalf("response %d out of order", i)
		}
	}
}

// TestBatchServerErrorDiscardsUnit: a Deliver failure inside a unit
// answers kindError for the whole unit, and no half-built responses leak
// into the next exchange.
func TestBatchServerErrorDiscardsUnit(t *testing.T) {
	_, r, closer := remoteLoopback()
	defer closer()
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 1}}
	data, _ := (newRegistry()).Encode(KindData, cell)
	bad := ipc.Message{Kind: ipc.KindUser + 9, Time: 2 * sim.Microsecond} // undeclared kind
	good := ipc.Message{Kind: KindData, Time: 2 * sim.Microsecond, Data: data}
	if _, err := r.Exchange([]ipc.Message{good, bad, good}); err == nil {
		t.Fatal("unit with undeclared kind accepted")
	}
	// The link keeps working and the poisoned unit's outbox is gone.
	out, err := r.Exchange([]ipc.Message{{Kind: ipc.KindSync, Time: 200 * sim.Microsecond}})
	if err != nil {
		t.Fatalf("follow-up sync: %v", err)
	}
	for _, m := range out {
		if m.Kind != ipc.KindSync {
			t.Fatalf("stale response leaked after failed unit: %v", m)
		}
	}
}

// TestBatchMetrics: coalesced flushes publish their count and size and
// bin batch_cells coverage; the units of one that the initialization and
// lone syncs travel in do not.
func TestBatchMetrics(t *testing.T) {
	e := newLoopbackEntity()
	reg := obs.NewRegistry()
	cover := obs.NewCoverRegistry()
	n := netsim.New(7)
	log := &unitLog{Coupling: &Direct{Entity: e}}
	iface := &InterfaceProcess{
		Coupling:  log,
		Registry:  newRegistry(),
		SyncEvery: 100 * sim.Microsecond,
	}
	iface.Observe(&obs.Run{Registry: reg, Cover: cover})
	src := &netsim.Source{
		Gen:   cellGen{2726 * sim.Nanosecond},
		Limit: 10,
		Make: func(ctx *netsim.Ctx, i uint64) netsim.Packet {
			c := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 100}, Seq: uint32(i)}
			c.StampSeq()
			return ctx.Net().NewPacket(c, atm.CellBytes*8)
		},
	}
	na := n.Node("src", src)
	nb := n.Node("castanet", iface)
	n.Connect(na, 0, nb, 0, netsim.LinkParams{})
	n.Run(50 * 2726 * sim.Nanosecond)
	batches := reg.Counter("cosim.iface.batches").Value()
	if batches != 10 {
		t.Errorf("cosim.iface.batches = %d, want one per cell instant (10)", batches)
	}
	if got := reg.Histogram("cosim.iface.batch_size").N(); got != batches {
		t.Errorf("cosim.iface.batch_size observed %d times, want %d", got, batches)
	}
	if uint64(len(log.sizes)) <= batches {
		t.Errorf("%d units crossed the coupling, want the init and lone syncs beyond the %d flushes", len(log.sizes), batches)
	}
	hits := uint64(0)
	for _, g := range cover.Snapshot() {
		for _, p := range g.Points {
			for _, b := range p.Bins {
				hits += b.Hits
			}
		}
	}
	if hits != batches {
		t.Errorf("batch_cells coverage hits = %d, want one per flush (%d)", hits, batches)
	}
}
