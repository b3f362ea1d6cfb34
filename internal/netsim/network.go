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
type Packet struct {
	ID      uint64
	Created sim.Time
	Kind    string
	Data    interface{} // typed payload, e.g. *atm.Cell
	Size    int         // bits on the wire, for link transmission delay
}

// Network is the network-domain container: nodes, links and the kernel.
type Network struct {
	Sched *sim.Scheduler
	RNG   *sim.RNG

	nodes   map[string]*Node
	order   []*Node
	nextPkt uint64

	// Delivered counts end-to-end packet deliveries across all links.
	Delivered uint64
}

// New returns an empty network using the given master seed for all
// stochastic behaviour.
func New(seed uint64) *Network {
	return &Network{
		Sched: sim.NewScheduler(),
		RNG:   sim.NewRNG(seed),
		nodes: make(map[string]*Node),
	}
}

// Now returns the current simulated time.
func (n *Network) Now() sim.Time { return n.Sched.Now() }

// NewPacket allocates a packet stamped with the current time.
func (n *Network) NewPacket(kind string, data interface{}, sizeBits int) *Packet {
	n.nextPkt++
	return &Packet{ID: n.nextPkt, Created: n.Now(), Kind: kind, Data: data, Size: sizeBits}
}

// Node creates a node hosting the given processor. Node names must be
// unique within the network.
func (n *Network) Node(name string, p Processor) *Node {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	node := &Node{Name: name, net: n, proc: p}
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
			node.proc.Init(&Ctx{node: node})
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
	Sent      uint64
}

// send transmits pkt, delivering it to the destination processor after
// transmission + propagation time.
func (l *Link) send(pkt *Packet) {
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
	l.Sent++
	l.net.Sched.At(arrive, func() {
		l.net.Delivered++
		l.dst.deliver(pkt, l.dstPort)
	})
}

// Node is a network element in the node domain. Its behaviour lives in its
// Processor; its communication interfaces are numbered output ports bound
// to links.
type Node struct {
	Name   string
	net    *Network
	proc   Processor
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

func (nd *Node) deliver(pkt *Packet, port int) {
	nd.proc.Arrival(&Ctx{node: nd}, pkt, port)
}

// Inject delivers a packet to the node's processor at the current
// simulated time, bypassing any link — the hook external drivers (test
// harnesses, vector injectors) use to stimulate a process directly.
func (nd *Node) Inject(pkt *Packet, port int) {
	nd.deliver(pkt, port)
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
	Arrival(ctx *Ctx, pkt *Packet, port int)
	// Timer handles a self interrupt previously set via ctx.SetTimer.
	Timer(ctx *Ctx, tag interface{})
}

// Ctx gives a processor access to its execution environment for the
// duration of one interrupt.
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
func (c *Ctx) Send(pkt *Packet, port int) {
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

// SetTimer schedules a self interrupt after the given delay. The returned
// event may be cancelled.
func (c *Ctx) SetTimer(delay sim.Duration, tag interface{}) *sim.Event {
	nd := c.node
	return nd.net.Sched.After(delay, func() {
		nd.proc.Timer(&Ctx{node: nd}, tag)
	})
}
