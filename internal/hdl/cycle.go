package hdl

import "math/bits"

// This file is cycle stepping (DESIGN.md §21), after CCSS, which
// synchronizes sequential logic at clock edges apart from combinational
// evaluation. Every model clocked by a kernel-owned clock (Simulator.Clock)
// is a set of rising-edge Clocked processes, so once nothing else observes
// the clock, its falling edge is a bare toggle and its rising edge a fixed
// dispatch list. The kernel keeps one verdict per clock — eligible —
// and uses it four ways: idle-clock elision (elide.go) skips edges while
// every watcher is parked, the bounded runs fold a falling edge that is
// alone in its instant, Step dispatches a rising edge straight to the
// clock's awake Clocked processes, and a clock commit with no probe
// attached is a word rotation. Each is observably identical to executing
// the edge through the event machinery.

// rederive recomputes the verdict of the kernel clock driving g, if any:
// the clock is eligible when every watcher of g is a Clocked process, no
// process wakes on g, the generator is its only driver and its half
// period is positive. It also rebuilds the awake mask from the watchers'
// slots and parking state, which Clocked, Park and Wake keep current from
// then on. Process, WakeOn, Driver and Clock call it; Clocked only adds
// its new watcher, which leaves the verdict as it is. The mask is reused:
// it grows only when the watchers outgrow it.
func (g *Signal) rederive() {
	c := g.clk
	if c == nil {
		return
	}
	c.eligible = !g.sim.plain && c.half > 0 && len(g.wakers) == 0 && len(g.drivers) == 1
	c.cover(len(g.watchers))
	clear(c.awake)
	for i, p := range g.watchers {
		if p.edge == nil {
			c.eligible = false
		} else {
			p.slot = int32(i)
			c.note(p.slot, !p.parked)
		}
	}
}

// cover grows the awake mask to hold n watcher slots.
func (c *clock) cover(n int) {
	for len(c.awake) < (n+63)>>6 {
		c.awake = append(c.awake, 0)
	}
}

// note records that the Clocked watcher in slot is awake or parked.
func (c *clock) note(slot int32, awake bool) {
	bit := uint64(1) << (slot & 63)
	if awake {
		c.awake[slot>>6] |= bit
	} else {
		c.awake[slot>>6] &^= bit
	}
}

// rise takes the rising edge of an eligible clock. When it is the first
// trigger of the delta it is held for direct dispatch: Step then runs the
// clock's awake watchers as they stand now, in registration order, with
// no trigger append and no Rising() test, before anything triggered later
// in the delta. Plain triggering orders them the same way, since they
// would head the runnable list. When the delta has already triggered
// something, or another clock's edge is held, the edge falls back to
// plain triggers, so the run order is unchanged.
func (s *Simulator) rise(c *clock) {
	if s.rose == nil && len(s.runnable) == 0 {
		s.rose, s.roseN = c, len(c.drv.sig.watchers)
		return
	}
	for _, p := range c.drv.sig.watchers {
		s.trigger(p)
	}
}

// dispatch runs a held rising edge: the awake watchers of c below slot n,
// in slot order. It re-reads the mask after each run, so a park or wake
// by an earlier watcher in this delta is honoured at a later slot, as the
// parked check at each slot of the runnable list honours it.
func (s *Simulator) dispatch(c *clock, n int) {
	watchers := c.drv.sig.watchers[:n]
	for i := 0; i < n; i++ {
		w := c.awake[i>>6] >> (i & 63)
		if w == 0 {
			i |= 63 // the rest of this word is parked
			continue
		}
		if i += bits.TrailingZeros64(w); i >= n {
			return
		}
		s.runProcess(watchers[i])
	}
}

// edge executes the clock toggle t, just popped by Step's signal-update
// phase, in place: it flips the phase and re-pushes t half a period later
// with a fresh seq. When the delta ring is empty and no other live heap
// entry is due now, the assignment SetBit would queue carries the newest
// seq and is the next thing the phase applies, in this delta, so the edge
// commits it straight to the driver instead: same order, stamp, OnChange
// calls and counts. Otherwise it assigns through SetBit, as any driver
// does. The plain-dispatch twin always does.
func (s *Simulator) edge(t *txn) {
	c := t.clock()
	if c.val == L0 {
		c.val = L1
		c.rises++
	} else {
		c.val = L0
	}
	t.at = s.now + c.half
	if !s.plain && s.ringPeek() == nil {
		if h := s.agendaPeek(); h == nil || h.at > s.now {
			s.push(t)
			c.commit()
			return
		}
	}
	c.drv.SetBit(c.val)
	s.push(t)
}

// fold executes the next instant without the Step machinery when it holds
// nothing but the falling edge of an eligible clock: the current instant
// is quiet, the earliest agenda entry, t, is the toggle of c from high,
// and no other entry shares its instant. Eligibility makes the edge
// trigger nothing, so the fold commits the toggle straight to the driver
// (firing OnChange and the profile as the commit always does), credits
// the one time point and delta the executed instant would have taken,
// and re-pushes the toggle as the executed edge does. It reports whether
// it folded. Only the bounded runs call it; Step never skips an edge.
func (s *Simulator) fold(t *txn, c *clock) bool {
	if !c.eligible || c.val != L1 {
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
	t.at += c.half
	s.push(t) // fresh seq, as the executed toggle would have scheduled it
	c.commit()
	s.deltaCycles++
	s.folded++
	s.syncObs()
	s.prof.publish()
	return true
}

// commit commits the clock's phase straight to its driver, exactly as the
// signal-update phase commits the assignment SetBit would have queued. On
// an eligible clock whose signal has no OnChange callback and whose
// vectors already lag their words, that commit is commitWord's steady
// branch and fire reduced to what an eligible clock reaches: the words
// rotate, the event is stamped and counted, and a rising edge goes to
// rise. Every other case takes the generic commit.
func (c *clock) commit() {
	d := c.drv
	g := d.sig
	if !d.packable() {
		d.value = bitLV[c.val]
		d.vstale = false
		d.classify()
		g.resolve()
		return
	}
	w := uint64(c.val - L0)
	if !c.eligible || !g.valStale || len(g.onChange) != 0 {
		d.commitPacked(w)
		return
	}
	d.pstate, d.pword = drvTwo, w
	if g.pval == w {
		return
	}
	d.vstale = true
	g.pprev, g.pprevKnown, g.prevStale = g.pval, true, true
	g.pval = w
	s := g.sim
	if pr := s.prof; pr != nil {
		pr.sigEvents[g.id]++
		pr.sigTwo[g.id]++
	}
	g.eventStamp = s.stamp
	s.signalEvents++
	if w == 1 && len(g.watchers) > 0 {
		s.rise(c)
	}
}
