// Package netsim is a discrete-event telecommunication network simulator
// standing in for OPNET Modeler. It mirrors OPNET's hierarchical modeling
// domains described in the paper:
//
//   - the network domain — a topology of nodes and communication links;
//   - the node domain — each node's processing, queueing and communication
//     interfaces (Processor implementations and Ports);
//   - the process domain — node behaviour written as Go Processor
//     implementations that react to begin, arrival and timer interrupts:
//     the CASTANET interface process, the reference models, and the
//     sources, queues and sinks of this package.
//
// System behaviour and performance are analyzed by discrete-event
// simulation on a shared kernel (package sim). The CASTANET interface
// process of package cosim is itself just a Processor in this simulator,
// exactly as the paper implements it as a special OPNET interface model.
package netsim

import (
	"fmt"

	"castanet/internal/sim"
)

// Packet is the abstract protocol data unit exchanged between processes.
// Communication at this level is instantaneous and structural: when an
// event occurs the complete information is available at once (§3.2), in
// contrast to the bit-serial representation at the implementation level.
// A packet is a value: it travels inside the arrival event that carries
// it, and a processor that keeps one (a queue) keeps its own copy.
type Packet struct {
	Created sim.Time
	Data    interface{} // typed payload, e.g. *atm.Cell
	Size    int         // bits on the wire, for link transmission delay
}

// event is one entry of the network's event list: a packet arriving on
// an input port of a node, or a timer interrupt of the node's processor
// (port timerPort). Events are held by value in the scheduler, so neither
// kind allocates.
type event struct {
	node *Node
	port int
	pkt  Packet
	tag  interface{}
}

// timerPort marks a timer event.
const timerPort = -1

// dispatch delivers one due event to its node's processor.
func dispatch(ev event) {
	nd := ev.node
	if ev.port == timerPort {
		nd.proc.Timer(&nd.ctx, ev.tag)
		return
	}
	nd.proc.Arrival(&nd.ctx, ev.pkt, ev.port)
}

// Network is the network-domain container: nodes, links and the kernel.
type Network struct {
	Sched *sim.Scheduler[event]
	RNG   *sim.RNG

	nodes map[string]*Node
	order []*Node
}

// New returns an empty network using the given master seed for all
// stochastic behaviour.
func New(seed uint64) *Network {
	return &Network{
		Sched: sim.NewScheduler(dispatch),
		RNG:   sim.NewRNG(seed),
		nodes: make(map[string]*Node),
	}
}

// Now returns the current simulated time.
func (n *Network) Now() sim.Time { return n.Sched.Now() }

// NewPacket returns a packet stamped with the current time.
func (n *Network) NewPacket(data interface{}, sizeBits int) Packet {
	return Packet{Created: n.Now(), Data: data, Size: sizeBits}
}

// Node creates a node hosting the given processor. Node names must be
// unique within the network.
func (n *Network) Node(name string, p Processor) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	node := &Node{Name: name, net: n, proc: p}
	node.ctx.node = node
	n.nodes[name] = node
	n.order = append(n.order, node)
	return node
}

// Connect creates a simplex link from port srcPort of src to port dstPort
// of dst. Transmission of a packet takes size/rate seconds followed by the
// propagation delay; zero rate means infinite bandwidth.
func (n *Network) Connect(src *Node, srcPort int, dst *Node, dstPort int, p LinkParams) *Link {
	l := &Link{net: n, src: src, dst: dst, dstPort: dstPort, params: p}
	src.setOutput(srcPort, l)
	return l
}

// Run initializes all processors (in creation order) and executes events
// until the given horizon.
func (n *Network) Run(until sim.Time) {
	n.Init()
	n.Sched.RunUntil(until)
}

// Init runs every processor's Init exactly once; it is idempotent so that
// co-simulation drivers can initialize before stepping manually.
func (n *Network) Init() {
	for _, node := range n.order {
		if !node.inited {
			node.inited = true
			node.proc.Init(&node.ctx)
		}
	}
}

// LinkParams describes a communication link in the network domain.
type LinkParams struct {
	Delay   sim.Duration // propagation delay
	RateBps float64      // transmission rate; 0 = infinite
}

// Link is a simplex point-to-point channel. It serializes transmissions:
// a packet may not begin transmission before the previous one finished
// (transmitter busy), which yields correct queueing behaviour at loaded
// ports.
type Link struct {
	net     *Network
	src     *Node
	dst     *Node
	dstPort int
	params  LinkParams

	busyUntil sim.Time
}

// send transmits pkt, delivering it to the destination processor after
// transmission + propagation time.
func (l *Link) send(pkt Packet) {
	now := l.net.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var txTime sim.Duration
	if l.params.RateBps > 0 && pkt.Size > 0 {
		txTime = sim.FromSeconds(float64(pkt.Size) / l.params.RateBps)
	}
	l.busyUntil = start + txTime
	arrive := l.busyUntil + l.params.Delay
	l.net.Sched.At(arrive, event{node: l.dst, port: l.dstPort, pkt: pkt})
}

// Node is a network element in the node domain. Its behaviour lives in its
// Processor; its communication interfaces are numbered output ports bound
// to links. Every interrupt of the processor receives the node's one Ctx.
type Node struct {
	Name   string
	net    *Network
	proc   Processor
	ctx    Ctx
	out    []*Link
	inited bool
}

func (nd *Node) setOutput(port int, l *Link) {
	for port >= len(nd.out) {
		nd.out = append(nd.out, nil)
	}
	if nd.out[port] != nil {
		panic(fmt.Sprintf("netsim: node %q port %d already connected", nd.Name, port))
	}
	nd.out[port] = l
}

// Inject delivers a packet to the node's processor at the current
// simulated time, bypassing any link — the hook external drivers (test
// harnesses, vector injectors) use to stimulate a process directly.
func (nd *Node) Inject(pkt Packet, port int) {
	nd.proc.Arrival(&nd.ctx, pkt, port)
}

// InjectAt schedules pkt to arrive on the node's input port at absolute
// time t, bypassing any link: Inject for a driver that stimulates a
// process before or between runs.
func (nd *Node) InjectAt(t sim.Time, pkt Packet, port int) {
	nd.net.Sched.At(t, event{node: nd, port: port, pkt: pkt})
}

// Processor is the node-domain behaviour contract. OPNET would call this a
// processor or queue module; concrete implementations include traffic
// sources, FIFO queues, sinks, the reference switch model and the CASTANET
// interface process.
type Processor interface {
	// Init runs once at the begin-simulation interrupt.
	Init(ctx *Ctx)
	// Arrival handles a packet arriving on an input port ("stream
	// interrupt").
	Arrival(ctx *Ctx, pkt Packet, port int)
	// Timer handles a self interrupt previously set via ctx.SetTimer.
	Timer(ctx *Ctx, tag interface{})
}

// Ctx gives a processor access to its execution environment for the
// duration of one interrupt. Each node has one, passed to every interrupt
// of its processor.
type Ctx struct {
	node *Node
}

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Time { return c.node.net.Now() }

// Net returns the network.
func (c *Ctx) Net() *Network { return c.node.net }

// RNG returns the network-wide random stream.
func (c *Ctx) RNG() *sim.RNG { return c.node.net.RNG }

// Send transmits a packet on the given output port. It panics when the
// port is not connected — mirroring OPNET's runtime error for sending to
// an unconnected stream.
func (c *Ctx) Send(pkt Packet, port int) {
	nd := c.node
	if port < 0 || port >= len(nd.out) || nd.out[port] == nil {
		panic(fmt.Sprintf("netsim: node %q: send on unconnected port %d", nd.Name, port))
	}
	nd.out[port].send(pkt)
}

// Connected reports whether an output port is bound to a link.
func (c *Ctx) Connected(port int) bool {
	return port >= 0 && port < len(c.node.out) && c.node.out[port] != nil
}

// SetTimer schedules a self interrupt after the given delay; the
// processor's Timer receives tag. Timers falling due at the same instant
// as arrivals or other timers run in the order they were set.
func (c *Ctx) SetTimer(delay sim.Duration, tag interface{}) {
	c.node.net.Sched.After(delay, event{node: c.node, port: timerPort, tag: tag})
}
