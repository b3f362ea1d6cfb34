package hdl

import (
	"errors"
	"fmt"

	"castanet/internal/obs"
	"castanet/internal/sim"
)

// MaxDeltas bounds the number of delta cycles at one time point; exceeding
// it means the model oscillates without advancing time (e.g. two
// combinational processes driving each other) and Run returns an error
// instead of hanging.
const MaxDeltas = 10000

// txn is a pending heap transaction: either a delayed driver update or a
// plain timed callback (test-bench stimulus, clock edge). Transactions are
// pooled; a txn recycles once both of its owners have released it — the
// heap it was scheduled into and its driver's projected waveform (pending
// list). Callback transactions are never in a pending list and are born
// with that bit released. A clock generator's toggle (edge set) carries
// the generator's driver and is neither: it stays with its clock for the
// whole run, re-pushed at every edge and never pooled. Zero-delay driver
// transactions on the packed plane do not use this type at all — they
// ride the delta ring as rtxn values.
type txn struct {
	at     sim.Time
	seq    uint64
	drv    *Driver
	val    LV
	pword  uint64 // packed two-state value when packed is set
	fn     func()
	dead   bool
	packed bool
	edge   bool // a clock toggle (Simulator.Clock)
	rel    uint8
	next   *txn // pool free list
}

const (
	relContainer uint8 = 1 << iota // dropped from the heap
	relPending                     // dropped from its driver's pending list
)

// newTxn takes a transaction from the pool (or allocates one).
func (s *Simulator) newTxn() *txn {
	t := s.free
	if t == nil {
		return &txn{}
	}
	s.free = t.next
	t.next = nil
	return t
}

// releaseTxn marks one ownership released; when both the container and the
// pending list have let go, the transaction is zeroed and pooled.
func (s *Simulator) releaseTxn(t *txn, bit uint8) {
	t.rel |= bit
	if t.rel != relContainer|relPending {
		return
	}
	*t = txn{next: s.free}
	s.free = t
}

// rtxn is a zero-delay driver transaction in the delta ring (packed
// plane). Ring entries are plain values — no pool, no pending-list
// membership, no release bookkeeping. Inertial preemption is a seq
// handshake: the owning driver remembers the seq of its latest zero-delay
// assignment (ringSeq/ringArmed), and an entry whose seq no longer
// matches is dead.
// The entry is deliberately pointer-free so the ring's backing array is
// never scanned and the append pays no write barrier: the driver travels
// as its registry index, packed entries carry their word in pword, and
// the rare nine-value entry parks its vector in the simulator's ringVals
// side array with pword holding the index.
type rtxn struct {
	seq    uint64
	pword  uint64
	di     uint32
	packed bool
}

// txnHeap is a min-heap of transactions ordered by (time, insertion seq).
type txnHeap struct {
	items []*txn
}

func (h *txnHeap) push(t *txn) {
	h.items = append(h.items, t)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *txnHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *txnHeap) pop() *txn {
	n := len(h.items)
	if n == 0 {
		return nil
	}
	t := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return t
}

func (h *txnHeap) len() int { return len(h.items) }

// Process is a VHDL process: a body re-executed whenever a signal on its
// sensitivity list has an event (Simulator.Process), or on every rising
// edge of its clock (Simulator.Clocked).
type Process struct {
	name      string
	fn        func()
	id        int     // creation-order index into the profiler's accumulators
	edge      *Signal // clock of a Clocked process, nil for level sensitivity
	triggered bool
	parked    bool
	slot      int32 // a Clocked process's index in its clock's watchers
	runs      uint64
}

// Park suspends the process: its triggers are ignored until Wake, or an
// event on a WakeOn signal, resumes it — VHDL's "wait on". The kernel
// checks the flag when it dispatches the process, not when it triggers it,
// so a wake from anywhere before the process's slot in the current delta
// (the signal-update phase, or a process dispatched earlier) is honoured
// in that delta, and a later wake takes effect at the next trigger.
//
// A process may park only while every run of its body would change no
// signal value and no Go state that others read, until one of its wake
// sources fires. Under that contract parking changes no waveform, event
// or time point; it removes process runs, and the trailing delta cycles
// that only re-asserted unchanged values.
func (p *Process) Park() {
	if !p.parked {
		p.parked = true
		if c := p.domain(); c != nil {
			c.note(p.slot, false)
		}
	}
}

// Wake resumes a parked process; a no-op on a running one.
func (p *Process) Wake() {
	if p.parked {
		p.parked = false
		if c := p.domain(); c != nil {
			c.note(p.slot, true)
		}
	}
}

// domain returns the kernel clock whose rising edges dispatch a Clocked
// process, nil for a level process or a clock no Clock drives.
func (p *Process) domain() *clock {
	if p.edge == nil {
		return nil
	}
	return p.edge.clk
}

// WakeOn makes every event on sig wake the process.
func (p *Process) WakeOn(sig *Signal) {
	sig.wakers = append(sig.wakers, p)
	sig.rederive()
}

// Simulator is the event-driven HDL simulation kernel. The central loop
// implements the two-phase VHDL cycle: a signal-update phase applying all
// transactions due in the current delta, then a process-execution phase
// running every process made sensitive by those events. Processes schedule
// new transactions; zero-delay assignments mature in the next delta of the
// same simulated instant.
//
// From its first run the simulator runs the packed data plane (DESIGN.md
// §18, compile.go): zero-delay driver transactions bypass the heap
// through the delta ring, and two-state values travel as packed words.
// The scheduling semantics — which transaction applies in which delta, in
// which order — are those of the plain nine-value event kernel, which
// stays as the tests' reference; the shared seq counter across heap and
// ring is what makes the merge order exact.
type Simulator struct {
	now   sim.Time
	stamp uint64 // increments every delta; signals stamp their events with it

	agenda    txnHeap
	nseq      uint64 // global transaction order, shared by heap and ring
	ring      []rtxn // zero-delay driver transactions (packed plane), FIFO = seq order
	ringVals  []LV   // vectors of non-packed ring entries, indexed by their pword
	ringHead  int
	free      *txn      // txn pool
	drvs      []*Driver // all drivers in creation order; rtxn.di indexes this
	processes []*Process
	runnable  []*Process
	spare     []*Process // recycled runnable buffer
	signals   []*Signal

	// Cycle stepping (cycle.go): rose is the eligible clock whose rising
	// edge awaits direct dispatch in the current delta, and roseN the
	// number of its watchers at that edge. plain switches cycle stepping
	// off (tests only, export_test.go).
	rose  *clock
	roseN int
	plain bool

	// The data plane (compile.go): compiled is set by the first run,
	// which sets fast unless nine (tests only) or UseNineValuePlane keeps
	// the simulator on the nine-value reference plane.
	compiled bool
	fast     bool
	nine     bool

	// absorbed stands in for the ring entries of absorbed assignments
	// (Driver.setPacked) until the next signal-update phase, which counts
	// it as applied; absorptions counts those assignments.
	absorbed    bool
	absorptions uint64

	deltasAtNow  int
	signalEvents uint64
	procRuns     uint64
	timePoints   uint64
	deltaCycles  uint64
	elided       uint64 // clock edges skipped by elision (elide.go)
	folded       uint64 // falling edges folded by the bounded runs (cycle.go)

	// Observability handles, synchronized from the internal counters once
	// per executed instant (diff-based) so the per-delta hot path stays
	// untouched. All nil when uninstrumented.
	obsDeltas   *obs.Counter
	obsEvents   *obs.Counter
	obsRuns     *obs.Counter
	obsPoints   *obs.Counter
	obsElided   *obs.Counter
	obsFolded   *obs.Counter
	obsAbsorbed *obs.Counter
	obsPending  *obs.Gauge // scheduled-transaction agenda depth
	lastSync    struct{ deltas, events, runs, points, elided, folded, absorbed uint64 }

	// prof, when non-nil, attributes events and runs to individual
	// signals and processes (see profile.go). Hot paths pay one nil test
	// when disabled.
	prof *ActivityProfile
}

// Instrument registers the simulator's metrics under the given prefix
// (e.g. "hdl.sim"): delta_cycles, signal_events (transitions),
// process_runs, time_points, elided_edges, folded_edges and
// absorbed_assignments (zero-delay assignments that left their driver as
// it was and were never queued). Counters are updated once per executed
// time point, so the per-delta and per-signal hot paths carry no
// instrumentation at all.
func (s *Simulator) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	s.obsDeltas = reg.Counter(prefix + ".delta_cycles")
	s.obsEvents = reg.Counter(prefix + ".signal_events")
	s.obsRuns = reg.Counter(prefix + ".process_runs")
	s.obsPoints = reg.Counter(prefix + ".time_points")
	s.obsElided = reg.Counter(prefix + ".elided_edges")
	s.obsFolded = reg.Counter(prefix + ".folded_edges")
	s.obsAbsorbed = reg.Counter(prefix + ".absorbed_assignments")
	s.obsPending = reg.Gauge(prefix + ".pending")
	s.lastSync.deltas = s.deltaCycles
	s.lastSync.events = s.signalEvents
	s.lastSync.runs = s.procRuns
	s.lastSync.points = s.timePoints
	s.lastSync.elided = s.elided
	s.lastSync.folded = s.folded
	s.lastSync.absorbed = s.absorptions
}

// syncObs publishes the counter deltas accumulated since the last sync.
// The delta ring is always empty between instants, so the pending gauge is
// the agenda depth in both kernel modes.
func (s *Simulator) syncObs() {
	if s.obsDeltas == nil {
		return
	}
	s.obsDeltas.Add(s.deltaCycles - s.lastSync.deltas)
	s.obsEvents.Add(s.signalEvents - s.lastSync.events)
	s.obsRuns.Add(s.procRuns - s.lastSync.runs)
	s.obsPoints.Add(s.timePoints - s.lastSync.points)
	s.obsElided.Add(s.elided - s.lastSync.elided)
	s.obsFolded.Add(s.folded - s.lastSync.folded)
	s.obsAbsorbed.Add(s.absorptions - s.lastSync.absorbed)
	s.obsPending.Set(float64(s.agenda.len()))
	s.lastSync.deltas = s.deltaCycles
	s.lastSync.events = s.signalEvents
	s.lastSync.runs = s.procRuns
	s.lastSync.points = s.timePoints
	s.lastSync.elided = s.elided
	s.lastSync.folded = s.folded
	s.lastSync.absorbed = s.absorptions
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{stamp: 1} }

// Now returns the current simulated time.
func (s *Simulator) Now() sim.Time { return s.now }

// Events returns the total number of signal value changes executed, the
// HDL-side event count compared against the network simulator in
// experiment E3.
func (s *Simulator) Events() uint64 { return s.signalEvents }

// ProcessRuns returns the total number of process body executions.
func (s *Simulator) ProcessRuns() uint64 { return s.procRuns }

// TimePoints returns how many distinct simulated instants were executed.
func (s *Simulator) TimePoints() uint64 { return s.timePoints }

// DeltaCycles returns the total number of delta cycles executed.
func (s *Simulator) DeltaCycles() uint64 { return s.deltaCycles }

// Signal creates a signal of the given width, all bits initialized to
// init ('U' at elaboration in VHDL).
func (s *Simulator) Signal(name string, width int, init Logic) *Signal {
	if width <= 0 {
		panic(fmt.Sprintf("hdl: signal %q with width %d", name, width))
	}
	g := &Signal{name: name, sim: s, width: width, id: int32(len(s.signals)), value: NewLV(width, init), prev: NewLV(width, init)}
	if width <= 64 {
		g.pmask = packMask(width)
		if s.fast {
			// Created after the first run: seed the mirror as compile
			// would, so a two-state init is packed from the start.
			g.packed = true
			g.initMirror()
		}
	}
	s.signals = append(s.signals, g)
	s.prof.growSignal()
	return g
}

// Bit creates a one-bit signal.
func (s *Simulator) Bit(name string, init Logic) *Signal { return s.Signal(name, 1, init) }

// Signals returns all signals in creation order (for waveform dumping).
func (s *Simulator) Signals() []*Signal { return s.signals }

// Process registers a process with a sensitivity list. The body runs once
// at start of simulation (VHDL processes execute until their first wait at
// elaboration) and then on every event of a listed signal.
func (s *Simulator) Process(name string, fn func(), sensitivity ...*Signal) *Process {
	p := s.newProcess(name, fn)
	for _, g := range sensitivity {
		g.watchers = append(g.watchers, p)
		g.rederive()
	}
	s.trigger(p)
	return p
}

// Clocked registers a process that runs on every rising edge of the
// one-bit clk and at no other time — VHDL's "wait until rising_edge(clk)".
// It is observably a Process on clk whose body starts with
// "if !clk.Rising() { return }", minus the runs that guard rejects: the
// process is not run at elaboration, and falling edges do not dispatch it.
func (s *Simulator) Clocked(name string, clk *Signal, fn func()) *Process {
	if clk.width != 1 {
		panic(fmt.Sprintf("hdl: clocked process %q on %q of width %d", name, clk.name, clk.width))
	}
	p := s.newProcess(name, fn)
	p.edge = clk
	p.slot = int32(len(clk.watchers))
	clk.watchers = append(clk.watchers, p)
	if c := clk.clk; c != nil {
		c.cover(len(clk.watchers)) // a new Clocked watcher is awake and keeps the verdict
		c.note(p.slot, true)
	}
	return p
}

func (s *Simulator) newProcess(name string, fn func()) *Process {
	p := &Process{name: name, fn: fn, id: len(s.processes)}
	s.processes = append(s.processes, p)
	s.prof.growProcess()
	return p
}

// Schedule runs fn at the given delay from now, in the signal-update phase
// of that instant's first delta. Test benches and clock generators use it;
// device models should use processes.
func (s *Simulator) Schedule(delay sim.Duration, fn func()) {
	s.schedule(delay, fn)
}

func (s *Simulator) schedule(delay sim.Duration, fn func()) *txn {
	if delay < 0 {
		panic("hdl: negative delay")
	}
	if fn == nil {
		panic("hdl: nil callback")
	}
	t := s.newTxn()
	t.at = s.now + delay
	t.fn = fn
	t.rel = relPending // callbacks are never in a pending list
	s.push(t)
	return t
}

// trigger marks a process runnable in the current (or first) delta.
func (s *Simulator) trigger(p *Process) {
	if !p.triggered {
		p.triggered = true
		s.runnable = append(s.runnable, p)
	}
}

// push stamps the transaction with the global order seq and inserts it in
// the time-ordered heap. Zero-delay driver transactions on the packed
// plane never come here — they take pushRing instead. The signal-update phase
// merges the two containers by seq, so the application order is exactly
// the order the plain event kernel would pop from its heap.
func (s *Simulator) push(t *txn) {
	t.seq = s.nseq
	s.nseq++
	s.agenda.push(t)
}

// pushRing appends a zero-delay driver transaction to the delta ring (a
// FIFO append — ring entries are in seq order by construction) and arms
// the driver's seq handshake, which both marks the entry live and
// implicitly kills any older ring entry of the same driver.
func (s *Simulator) pushRing(d *Driver, w uint64, v LV, packed bool) {
	seq := s.nseq
	s.nseq++
	if !packed {
		w = uint64(len(s.ringVals))
		s.ringVals = append(s.ringVals, v)
	}
	s.ring = append(s.ring, rtxn{seq: seq, pword: w, di: d.di, packed: packed})
	d.ringSeq, d.ringArmed = seq, true
}

// agendaPeek returns the earliest live heap transaction, releasing
// preempted (dead) ones back to the pool as it goes.
func (s *Simulator) agendaPeek() *txn {
	for {
		n := len(s.agenda.items)
		if n == 0 {
			return nil
		}
		t := s.agenda.items[0]
		if !t.dead {
			return t
		}
		s.agenda.pop()
		s.releaseTxn(t, relContainer)
	}
}

// ringPeek returns the earliest live ring transaction, skipping entries
// whose seq handshake no longer matches (preempted) and compacting the
// ring when it drains.
func (s *Simulator) ringPeek() *rtxn {
	for s.ringHead < len(s.ring) {
		e := &s.ring[s.ringHead]
		if d := s.drvs[e.di]; d.ringArmed && d.ringSeq == e.seq {
			return e
		}
		s.ringHead++
	}
	if len(s.ring) > 0 {
		s.ring = s.ring[:0]
		s.ringHead = 0
		for i := range s.ringVals {
			s.ringVals[i] = nil
		}
		s.ringVals = s.ringVals[:0]
	}
	return nil
}

// ringPop consumes the head entry; the caller has just ringPeek'ed it, so
// it is live.
func (s *Simulator) ringPop() (d *Driver, w uint64, v LV, packed bool) {
	e := &s.ring[s.ringHead]
	d, w, packed = s.drvs[e.di], e.pword, e.packed
	if !packed {
		v = s.ringVals[w]
	}
	s.ringHead++
	return
}

// ErrDeltaOverflow is returned when a single simulated instant exceeds
// MaxDeltas delta cycles.
var ErrDeltaOverflow = errors.New("hdl: delta cycle overflow (combinational loop?)")

// Step executes one complete simulated instant: it advances to the next
// transaction time and runs delta cycles until the instant is quiescent.
// It reports whether anything was executed. Step never elides or folds
// clock edges; only the bounded runs do (DESIGN.md §21), so a Step loop
// is the never-eliding twin the kernel tests compare them against.
func (s *Simulator) Step() (bool, error) {
	if !s.compiled {
		s.compile()
	}
	return s.step(s.agendaPeek(), s.quiet())
}

// quiet reports whether the current instant has nothing left to run:
// nothing runnable, no absorbed assignment and an empty delta ring.
func (s *Simulator) quiet() bool {
	return len(s.runnable) == 0 && !s.absorbed && s.ringPeek() == nil
}

// step is Step on t, the earliest live heap entry (nil when the heap is
// empty), and the current instant's quiet verdict, which the caller has
// just worked out.
func (s *Simulator) step(t *txn, quiet bool) (bool, error) {
	// Initial process executions (elaboration) run at the current time.
	if quiet {
		if t == nil {
			return false, nil
		}
		if t.at < s.now {
			panic(fmt.Sprintf("hdl: transaction in the past: now=%v at=%v", s.now, t.at))
		}
		s.now = t.at
	}
	s.timePoints++
	s.deltasAtNow = 0
	ht := t // the earliest live heap entry, peeked at the end of each delta
	for {
		s.stamp++
		// Phase 1: signal update — apply every transaction due now, in
		// global seq order across the heap and the delta ring. The heap
		// peek is cached across ring applies: ring commits run no user
		// code that schedules or preempts (OnChange probes must not write
		// signals), so only executing a heap transaction — whose fn may
		// schedule or preempt — can change the earliest live heap entry.
		// A clock toggle executes in place (cycle.go).
		applied := false
		if ht != nil && ht.at > s.now {
			ht = nil
		}
		for {
			rt := s.ringPeek()
			if ht == nil && rt == nil {
				break
			}
			applied = true
			if rt == nil || (ht != nil && ht.seq < rt.seq) {
				t := s.agenda.pop()
				switch {
				case t.edge:
					s.edge(t)
				case t.fn != nil:
					fn := t.fn
					s.releaseTxn(t, relContainer) // recycle before the call: fn may reuse it
					fn()
				default:
					t.drv.apply(t)
					s.releaseTxn(t, relContainer)
				}
				ht = s.agendaPeek()
				if ht != nil && ht.at > s.now {
					ht = nil
				}
			} else {
				d, w, v, packed := s.ringPop()
				d.ringArmed = false
				d.applyRing(w, v, packed)
			}
		}
		// Absorbed assignments, from the last process phase or from a
		// callback just applied, are the ring entries this phase would
		// have applied, to no effect.
		if s.absorbed {
			applied, s.absorbed = true, false
		}
		// Phase 2: process execution. Parked processes and clocked ones
		// whose clock's last event in this delta was not a rising edge
		// are skipped at their slot. A rising edge that was the delta's
		// first trigger dispatches its clock's awake Clocked processes
		// directly, in registration order, ahead of the rest (cycle.go).
		run := s.runnable
		s.runnable = s.spare[:0]
		if !applied && len(run) == 0 {
			s.spare = run
			break
		}
		if c := s.rose; c != nil {
			s.rose = nil
			s.dispatch(c, s.roseN)
		}
		for _, p := range run {
			p.triggered = false
			if p.parked || (p.edge != nil && !p.edge.Rising()) {
				continue
			}
			s.runProcess(p)
		}
		s.spare = run[:0]
		s.deltasAtNow++
		s.deltaCycles++
		if s.deltasAtNow > MaxDeltas {
			s.syncObs()
			s.prof.publish()
			return true, fmt.Errorf("%w at %v", ErrDeltaOverflow, s.now)
		}
		ht = s.agendaPeek()
		if s.quiet() && (ht == nil || ht.at > s.now) {
			break
		}
	}
	s.syncObs()
	s.prof.publish()
	return true, nil
}

// runProcess executes one process body with its run accounting.
func (s *Simulator) runProcess(p *Process) {
	p.runs++
	s.procRuns++
	if pr := s.prof; pr != nil {
		pr.procRuns[p.id]++
		if s.deltasAtNow > 0 {
			pr.procDelta[p.id]++
		}
	}
	p.fn()
}

// Run executes until the agenda is exhausted or the simulated time would
// exceed until. The clock ends at min(until, last activity).
func (s *Simulator) Run(until sim.Time) error {
	if err := s.RunThrough(until); err != nil {
		return err
	}
	if until != sim.Never && s.now < until {
		s.now = until
	}
	return nil
}

// RunBefore executes every instant strictly before t (the co-simulation
// entity's "events with a time stamp smaller than t_k, but not equal").
// Unlike a hand-written Step loop it elides idle clock edges and folds
// lone falling edges inside the bound (DESIGN.md §21); every observable
// is the same.
func (s *Simulator) RunBefore(t sim.Time) error { return s.runTo(t, false) }

// RunThrough executes every instant up to and including t, eliding and
// folding clock edges like RunBefore.
func (s *Simulator) RunThrough(t sim.Time) error { return s.runTo(t, true) }

// runTo decides each iteration's instant once: whether it is quiet, its
// earliest heap entry, and that entry's clock if it is a toggle. The
// bound applies to the instant NextTime would report; then the instant
// elides, folds or executes as a Step.
func (s *Simulator) runTo(bound sim.Time, inclusive bool) error {
	if !s.compiled {
		s.compile()
	}
	for elided := false; ; {
		ring := s.absorbed || s.ringPeek() != nil
		quiet := !ring && len(s.runnable) == 0
		t := s.agendaPeek()
		next := s.now
		if !ring {
			if t != nil {
				next = t.at
			} else if quiet {
				return nil
			}
		}
		if next == sim.Never || next > bound || (next == bound && !inclusive) {
			return nil
		}
		if quiet && t.edge {
			c := t.clock()
			// An elision leaves at most one edge it could have skipped,
			// so the instant after it always executes.
			if !elided && s.elide(t, c, bound, inclusive) {
				elided = true
				continue
			}
			elided = false
			if s.fold(t, c) {
				continue
			}
		}
		elided = false
		if _, err := s.step(t, quiet); err != nil {
			return err
		}
	}
}
