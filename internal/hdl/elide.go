package hdl

import "castanet/internal/sim"

// This file is idle-clock elision (DESIGN.md §21): a bounded run jumps a
// free-running clock over the edges no process listens to, after SCE-MI's
// controlled clocks, which stop the DUT clock while no transactor has
// work. An elided edge is credited to every counter, the activity profile
// and the clock's OnChange callbacks exactly as the executed edge would
// have been, so no artifact can tell the two apart.

// clock is a kernel-owned free-running clock generator (Simulator.Clock).
// Its pending toggle is a heap transaction marked edge that carries the
// generator's driver; Step executes it in place (cycle.go), and elision
// and folding recognise it. eligible and awake are the clock domain's
// cycle-stepping state (cycle.go), kept current as the design changes so
// that a check on them reads a field or a mask word, and a rising edge
// visits only the awake watchers. The clock's signal is drv.sig.
type clock struct {
	drv      *Driver
	half     sim.Duration
	rises    uint64   // rising edges made, elided ones included
	awake    []uint64 // unparked Clocked watchers, a bit per slot in the signal's watchers
	next     *clock   // a further generator on the signal; only the first is its clk
	val      Logic
	eligible bool // every watcher is Clocked; no waker or second driver
}

// Clock drives sig as a free-running clock with the given period and an
// initial low phase. The first rising edge occurs at period/2.
func (s *Simulator) Clock(sig *Signal, period sim.Duration) {
	if period <= 0 {
		panic("hdl: clock period must be positive")
	}
	c := &clock{drv: sig.Driver("clkgen:" + sig.name), half: period / 2, val: L0}
	c.drv.SetBit(L0)
	if k := sig.clk; k != nil {
		c.next, k.next = k.next, c
	} else {
		sig.clk = c
		sig.rederive()
	}
	t := s.newTxn()
	t.at = s.now + c.half
	t.drv = c.drv
	t.edge = true
	s.push(t)
}

// clock returns the generator whose toggle t is; t.edge is set.
func (t *txn) clock() *clock {
	c := t.drv.sig.clk
	for c.drv != t.drv {
		c = c.next
	}
	return c
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
// eligible (every watcher is Clocked, no process wakes on it, the
// generator is its only driver), every watcher is parked, and its last
// event was a two-state toggle — so an even number of further toggles
// leaves its value and prev exactly as they are.
func (c *clock) idle() bool {
	if !c.eligible {
		return false
	}
	for _, w := range c.awake {
		if w != 0 {
			return false
		}
	}
	g := c.drv.sig
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
// when the current instant is quiet and the earliest entry, t, is the
// toggle of c, a clock nobody listens to. It reports whether it skipped
// any. Only the bounded runs call it: a caller stepping by hand may wake a
// process between two Steps, so Step itself never elides.
func (s *Simulator) elide(t *txn, c *clock, bound sim.Time, inclusive bool) bool {
	if !c.idle() {
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
	g := c.drv.sig
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
