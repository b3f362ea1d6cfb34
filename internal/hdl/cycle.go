package hdl

// This file is cycle stepping (DESIGN.md §21), after CCSS, which
// synchronizes sequential logic at clock edges apart from combinational
// evaluation. Every model clocked by a kernel-owned clock (Simulator.Clock)
// is a set of rising-edge Clocked processes, so once nothing else observes
// the clock, its falling edge is a bare toggle and its rising edge a fixed
// dispatch list. The kernel keeps one verdict per clock — eligible —
// and uses it three ways: idle-clock elision (elide.go) skips edges while
// every watcher is parked, the bounded runs fold a falling edge that is
// alone in its instant, and Step dispatches a rising edge straight to the
// clock's Clocked processes. Each is observably identical to executing
// the edge through the event machinery.

// rederive recomputes the verdict of the kernel clock driving g, if any:
// the clock is eligible when every watcher of g is a Clocked process, no
// process wakes on g, no compiled gate reads g, the generator is its only
// driver and its half period is positive. It also recounts the unparked
// watchers, which Park and Wake keep current from then on. Process,
// WakeOn, Driver, Compile and Clock call it; Clocked only counts its new
// watcher, which leaves the verdict as it is.
func (g *Signal) rederive() {
	c := g.clk
	if c == nil {
		return
	}
	c.eligible = !g.sim.plain && c.half > 0 && len(g.wakers) == 0 && len(g.gwatch) == 0 && len(g.drivers) == 1
	c.awake = 0
	for _, p := range g.watchers {
		if p.edge == nil {
			c.eligible = false
		} else if !p.parked {
			c.awake++
		}
	}
}

// rise takes the rising edge of an eligible clock. When it is the first
// trigger of the delta it is held for direct dispatch: Step then runs the
// clock's watchers as they stand now, in registration order, checking
// parked at each slot, with no trigger append and no Rising() test,
// before anything triggered later in the delta. Plain triggering orders
// them the same way, since they would head the runnable list. When the
// delta has already triggered something, or another clock's edge is
// held, the edge falls back to plain triggers, so the run order is
// unchanged.
func (s *Simulator) rise(c *clock) {
	if s.rose == nil && len(s.runnable) == 0 {
		s.rose, s.roseN = c, len(c.sig.watchers)
		return
	}
	for _, p := range c.sig.watchers {
		s.trigger(p)
	}
}

// fold executes the next instant without the Step machinery when it holds
// nothing but the falling edge of an eligible clock: the current instant
// is idle, the earliest agenda entry is the clock's toggle from high, and
// no other entry shares its instant. Eligibility makes the edge trigger
// nothing, so the fold commits the toggle straight to the driver (firing
// OnChange and the profile as the commit always does), credits the one
// time point and delta the executed instant would have taken, and
// reschedules the toggle. It reports whether it folded. Only the bounded
// runs call it; Step never skips an edge.
func (s *Simulator) fold() bool {
	if len(s.runnable) > 0 || s.ndirty > 0 || s.ringPeek() != nil {
		return false
	}
	t := s.agendaPeek()
	if t == nil {
		return false
	}
	c := s.toggleClock(t)
	if c == nil || !c.eligible || c.val != L1 {
		return false
	}
	// A heap entry at the same instant is a child of the root; a dead
	// one there also declines the fold, which Step then handles exactly.
	if h := s.agenda.items; (len(h) > 1 && h[1].at == t.at) || (len(h) > 2 && h[2].at == t.at) {
		return false
	}
	s.agenda.pop()
	s.now = t.at
	s.timePoints++
	s.stamp++
	c.val = L0
	c.drv.commitBit(L0)
	s.deltaCycles++
	t.at += c.half
	s.push(t) // fresh seq, as the executed toggle would have scheduled it
	s.folded++
	s.syncObs()
	s.prof.publish()
	return true
}

// commitBit commits a one-bit value straight to the driver, exactly as the
// signal-update phase commits the transaction SetBit would have queued.
func (d *Driver) commitBit(l Logic) {
	if d.packable() {
		d.commitPacked(uint64(l - L0))
		return
	}
	d.value = bitLV[l]
	d.vstale = false
	d.classify()
	d.sig.resolve()
}
