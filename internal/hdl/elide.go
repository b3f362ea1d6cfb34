package hdl

import "castanet/internal/sim"

// This file is idle-clock elision (DESIGN.md §21): a bounded run jumps a
// free-running clock over the edges no process listens to, after SCE-MI's
// controlled clocks, which stop the DUT clock while no transactor has
// work. An elided edge is credited to every counter, the activity profile
// and the clock's OnChange callbacks exactly as the executed edge would
// have been, so no artifact can tell the two apart.

// clock is a kernel-owned free-running clock generator (Simulator.Clock).
// Its pending toggle is a heap callback transaction that also carries the
// generator's driver, which is how elision and folding recognise it.
// eligible and awake are the clock domain's cycle-stepping state
// (cycle.go), kept current as the design changes so that every check on
// them is O(1).
type clock struct {
	sig      *Signal
	drv      *Driver
	half     sim.Duration
	val      Logic
	rises    uint64 // rising edges made, elided ones included
	toggle   func()
	eligible bool // every watcher is Clocked; no waker, compiled gate or second driver
	awake    int  // unparked Clocked watchers of sig
}

// Clock drives sig as a free-running clock with the given period and an
// initial low phase. The first rising edge occurs at period/2.
func (s *Simulator) Clock(sig *Signal, period sim.Duration) {
	if period <= 0 {
		panic("hdl: clock period must be positive")
	}
	c := &clock{sig: sig, drv: sig.Driver("clkgen:" + sig.name), half: period / 2, val: L0}
	c.drv.SetBit(L0)
	c.toggle = func() {
		if c.val == L0 {
			c.val = L1
			c.rises++
		} else {
			c.val = L0
		}
		c.drv.SetBit(c.val)
		s.scheduleToggle(c)
	}
	if sig.clk == nil {
		sig.clk = c
		sig.rederive()
	}
	s.scheduleToggle(c)
}

// scheduleToggle queues the clock's next edge half a period from now.
func (s *Simulator) scheduleToggle(c *clock) {
	s.schedule(c.half, c.toggle).drv = c.drv
}

// toggleClock returns the generator whose toggle t is, or nil.
func (s *Simulator) toggleClock(t *txn) *clock {
	if t.fn == nil || t.drv == nil {
		return nil
	}
	if c := t.drv.sig.clk; c != nil && c.drv == t.drv {
		return c
	}
	return nil
}

// RisingEdges returns how many rising edges the clock that Clock drives
// onto clk has made up to the current instant, elided edges included. It
// panics if Clock does not drive clk.
func (s *Simulator) RisingEdges(clk *Signal) uint64 {
	if c := clk.clk; c != nil {
		return c.rises
	}
	panic("hdl: RisingEdges on " + clk.name + ", which Clock does not drive")
}

// idle reports whether nothing observes the clock's edges: the clock is
// eligible (every watcher is Clocked, no process wakes on it, no compiled
// gate reads it, the generator is its only driver), every watcher is
// parked, and its last event was a two-state toggle — so an even number
// of further toggles leaves its value and prev exactly as they are.
func (c *clock) idle() bool {
	if !c.eligible || c.awake > 0 {
		return false
	}
	g := c.sig
	if g.pknown && g.pprevKnown {
		return g.pval != g.pprev
	}
	if g.sim.fast {
		return false
	}
	v, p := g.value[0], g.prev[0]
	return (v == L0 && p == L1) || (v == L1 && p == L0)
}

// elide skips the largest even number of clock edges that are due before
// any other agenda entry and inside the bound (through it when inclusive),
// when the current instant is idle and the earliest entry is the toggle of
// a clock nobody listens to. It reports whether it skipped any. Only the
// bounded runs call it: a caller stepping by hand may wake a process
// between two Steps, so Step itself never elides.
func (s *Simulator) elide(bound sim.Time, inclusive bool) bool {
	if len(s.runnable) > 0 || s.ndirty > 0 || s.ringPeek() != nil {
		return false
	}
	t := s.agendaPeek()
	if t == nil {
		return false
	}
	c := s.toggleClock(t)
	if c == nil || !c.idle() {
		return false
	}
	last := bound // the latest instant an elided edge may occupy
	if !inclusive {
		last--
	}
	if last < t.at+c.half {
		return false // fewer than two edges inside the bound
	}
	s.agenda.pop()
	if next := s.agendaPeek(); next != nil {
		last = min(last, next.at-1)
	} else if bound == sim.Never {
		s.agenda.push(t) // unbounded: the jump would have no end
		return false
	}
	var k uint64
	if last >= t.at {
		k = (uint64(last-t.at)/uint64(c.half) + 1) &^ 1
	}
	if k < 2 {
		s.agenda.push(t) // original seq: same-instant order is unchanged
		return false
	}
	s.creditEdges(c, t.at, k)
	t.at += sim.Time(k) * c.half
	s.push(t) // fresh seq, as if the last skipped edge had scheduled it
	s.elided += k
	c.rises += k / 2
	s.syncObs()
	s.prof.publish()
	return true
}

// creditEdges accounts k skipped toggles starting at first: one time
// point, one delta cycle and one two-state signal event each, and one
// replay per OnChange callback with the edge's one-bit old and new values.
// It leaves now at the last skipped edge. The signal itself keeps the
// value it has after the even number of toggles.
func (s *Simulator) creditEdges(c *clock, first sim.Time, k uint64) {
	g := c.sig
	if pr := s.prof; pr != nil {
		pr.sigEvents[g.id] += k
		pr.sigTwo[g.id] += k
	}
	if len(g.onChange) == 0 {
		s.timePoints += k
		s.deltaCycles += k
		s.signalEvents += k
		s.stamp += k
		s.now = first + sim.Time(k-1)*c.half
		return
	}
	cur := c.val
	for i := uint64(0); i < k; i++ {
		s.now = first + sim.Time(i)*c.half
		s.timePoints++
		s.stamp++
		s.signalEvents++
		next := L0 + L1 - cur
		for _, fn := range g.onChange {
			fn(s.now, bitLV[cur], bitLV[next])
		}
		s.deltaCycles++
		cur = next
	}
}
