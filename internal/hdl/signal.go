package hdl

import (
	"fmt"

	"castanet/internal/sim"
)

// Signal is a resolved VHDL signal: a named, possibly multi-driver wire of
// one or more std_logic bits. Reads always observe the value of the
// current delta cycle; writes go through a Driver and take effect after a
// delta (or a user delay), never immediately — the VHDL signal-update
// semantics the synchronization protocol of the paper relies on.
//
// In compiled mode (after Simulator.Compile) every signal of 64 bits or
// fewer carries a packed two-state mirror: pknown reports that the current
// value is pure forcing 0/1 and pval holds it as one uint64 (bit i = bit
// i). While a single-driver signal stays two-state, assignments travel as
// packed words and the nine-value vector is materialized lazily, only when
// somebody asks for it (Val, VCD, a nine-value operation). The mirror is
// exact: for width ≤ 64, pknown == value.TwoState() at all times in
// compiled mode, which is what the purity guard and the profiler's
// two-state attribution rely on.
type Signal struct {
	name  string
	sim   *Simulator
	width int

	drivers []*Driver
	value   LV
	prev    LV

	// Packed two-state mirror (compiled mode, width ≤ 64).
	pmask      uint64
	pval       uint64
	pprev      uint64
	pknown     bool
	pprevKnown bool
	valStale   bool  // value's LV contents lag pval (pknown is set)
	prevStale  bool  // prev's LV contents lag pprev (pprevKnown is set)
	id         int32 // creation-order index into the profiler's accumulators

	region *Region // purity-guard region, set by Compile for gate cones
	clk    *clock  // kernel clock generator driving the signal, nil if none

	eventStamp uint64 // stamp of the delta in which the last event occurred
	watchers   []*Process
	wakers     []*Process                        // processes woken by every event (Process.WakeOn)
	gwatch     []*Gate                           // compiled gates sensitive to this signal
	onChange   []func(now sim.Time, old, new LV) // VCD and probes
}

// Name returns the signal's hierarchical name.
func (g *Signal) Name() string { return g.name }

// Width returns the number of bits.
func (g *Signal) Width() int { return g.width }

// matVal materializes the nine-value vector from the packed mirror.
func (g *Signal) matVal() {
	if g.valStale {
		unpackInto(g.value, g.pval)
		g.valStale = false
	}
}

// matPrev materializes the previous value into a fresh vector. A
// word-only commit keeps the prev slice it finds, and that slice may be
// one the signal shares — a driver's value, an all-Z vector, a bitLV
// constant — so unpacking into it would rewrite them.
func (g *Signal) matPrev() {
	if g.prevStale {
		g.prev = fromPacked(g.pprev, g.width)
		g.prevStale = false
	}
}

// Val returns the current resolved value. The returned vector must not be
// modified, and is valid until the signal's next event.
func (g *Signal) Val() LV {
	g.matVal()
	return g.value
}

// Prev returns the value before the most recent event.
func (g *Signal) Prev() LV {
	g.matPrev()
	return g.prev
}

// Bit returns the current value of a one-bit signal.
func (g *Signal) Bit() Logic {
	if g.width != 1 {
		panic(fmt.Sprintf("hdl: Bit() on %q of width %d", g.name, g.width))
	}
	if g.pknown {
		if g.pval&1 != 0 {
			return L1
		}
		return L0
	}
	return g.value[0]
}

// Uint returns the current value as an unsigned integer.
func (g *Signal) Uint() (uint64, bool) {
	if g.pknown {
		return g.pval, true
	}
	return g.value.Uint()
}

// Rising reports a 0→1 edge in the current delta ("rising_edge(sig)").
func (g *Signal) Rising() bool {
	if g.width != 1 || g.eventStamp != g.sim.stamp {
		return false
	}
	if g.pknown && g.pprevKnown {
		return g.pval&1 != 0 && g.pprev&1 == 0
	}
	return g.Prev()[0].IsLow() && g.Val()[0].IsHigh()
}

// OnChange registers a callback invoked after every value change (used by
// the VCD dumper and by statistic probes). Callbacks must not write
// signals. A signal with callbacks always materializes its vectors before
// firing, so callbacks never observe a stale mirror.
func (g *Signal) OnChange(fn func(now sim.Time, old, new LV)) {
	g.matVal()
	g.matPrev()
	g.onChange = append(g.onChange, fn)
}

// Driver allocates a new driver of the signal for the named owner. In
// VHDL every process driving a signal owns exactly one driver; the
// signal's value is the resolution of all driver contributions.
func (g *Signal) Driver(owner string) *Driver {
	if g.sim.fast {
		// A driver appearing after Compile ends the signal's packed
		// single-driver aliasing era: materialize every lazily-held vector
		// so the nine-value resolution that now governs reads real values.
		g.matVal()
		g.matPrev()
		for _, od := range g.drivers {
			od.matDrv()
		}
	}
	d := &Driver{sig: g, owner: owner, value: NewLV(g.width, U), di: uint32(len(g.sim.drvs))}
	g.sim.drvs = append(g.sim.drvs, d)
	g.drivers = append(g.drivers, d)
	g.rederive()
	return d
}

// initMirror seeds the packed mirror from the current nine-value state;
// Compile calls it once per signal so the mirror invariant holds from the
// first compiled delta.
func (g *Signal) initMirror() {
	g.pknown, g.pprevKnown = false, false
	g.valStale, g.prevStale = false, false
	if g.width > 64 {
		return
	}
	if w, ok := g.value.PackTwoState(); ok {
		g.pval, g.pknown = w, true
	}
	if w, ok := g.prev.PackTwoState(); ok {
		g.pprev, g.pprevKnown = w, true
	}
}

// fire records the event and wakes everything sensitive to it: processes,
// compiled gates, probes. The caller has already rotated value/prev. An
// eligible clock's watchers are all Clocked, so its falling edge triggers
// nothing and its rising edge goes to direct dispatch (cycle.go).
func (g *Signal) fire(old, new LV) {
	s := g.sim
	g.eventStamp = s.stamp
	s.signalEvents++
	for _, p := range g.wakers {
		p.Wake()
	}
	if len(g.watchers) > 0 {
		rising := g.Rising()
		if c := g.clk; c != nil && c.eligible {
			if rising {
				s.rise(c)
			}
		} else {
			for _, p := range g.watchers {
				if p.edge != nil && !rising {
					continue
				}
				s.trigger(p)
			}
		}
	}
	for _, gt := range g.gwatch {
		s.markDirty(gt)
	}
	for _, fn := range g.onChange {
		fn(s.now, old, new)
	}
}

// resolve recomputes the signal value from all drivers and, on change,
// records the event and wakes sensitive processes. This is the nine-value
// path; packed single-driver commits take Driver.commitPacked instead.
func (g *Signal) resolve() {
	var v LV
	switch len(g.drivers) {
	case 0:
		return
	case 1:
		// Driver values are never mutated in place (assignments replace
		// the slice), so the signal may alias the single driver's value.
		d := g.drivers[0]
		d.matDrv()
		v = d.value
	default:
		if g.sim.fast && g.width <= 64 {
			if w, ok := g.resolveWord(); ok {
				g.commitWord(g.drivers[0], w, false)
				return
			}
		}
		d0 := g.drivers[0]
		d0.matDrv()
		v = d0.value.Clone()
		for _, d := range g.drivers[1:] {
			d.matDrv()
			for i := range v {
				v[i] = Resolve(v[i], d.value[i])
			}
		}
	}
	g.matVal()
	if v.Equal(g.value) {
		return
	}
	old := g.value
	s := g.sim
	oldK := g.pknown
	g.prev = old
	g.prevStale = false
	g.pprev, g.pprevKnown = g.pval, oldK
	g.value = v
	var newK bool
	if s.fast && g.width <= 64 {
		var w uint64
		w, newK = v.PackTwoState()
		g.pval, g.pknown = w, newK
		if r := g.region; r != nil && oldK != newK {
			r.note(newK)
		}
	} else {
		g.pknown = false
	}
	if pr := s.prof; pr != nil {
		pr.sigEvents[g.id]++
		var oldTwo, newTwo bool
		if s.fast && g.width <= 64 {
			oldTwo, newTwo = oldK, newK
		} else {
			oldTwo, newTwo = old.TwoState(), v.TwoState()
		}
		if oldTwo && newTwo {
			pr.sigTwo[g.id]++
		}
	}
	g.fire(old, v)
}

// Driver contribution classes for word-level multi-driver resolution
// (compiled mode). drvOther is the zero value: the contribution carries
// X/W/U/DC bits (or mixes Z with strong bits) and forces the nine-value
// resolution table.
const (
	drvOther uint8 = iota
	drvTwo         // pure two-state: pword holds the contribution
	drvAllZ        // fully floating: drops out of resolution
)

// Driver is one process's contribution to a signal, with its projected
// output waveform (pending transactions).
type Driver struct {
	sig     *Signal
	owner   string
	value   LV
	pending []*txn
	// Commit buffers for the packed fast path: materialized values rotate
	// between two dedicated vectors so the signal's value/prev aliasing
	// survives one generation back, matching the classic path's contract
	// that a read vector stays valid until the signal's next event.
	pbuf [2]LV
	pidx uint8
	// Packed contribution mirror (compiled mode): pstate classifies the
	// driver's current value for resolveWord, pword holds it when two-state,
	// and vstale marks that the value vector's contents lag pword (packed
	// commits on multi-driver signals defer materialization until a
	// nine-value resolution actually needs the vector).
	pstate uint8
	pword  uint64
	vstale bool
	zval   LV // cached all-Z vector for SetZ
	// Delta-ring seq handshake (compiled mode): ringSeq is the seq of the
	// driver's latest zero-delay assignment and ringArmed marks it live.
	// A ring entry whose seq no longer matches has been preempted. di is
	// the driver's index in the simulator's registry, how pointer-free
	// ring entries name their driver.
	di        uint32
	ringSeq   uint64
	ringArmed bool
}

func (d *Driver) checkWidth(v LV) {
	if len(v) != d.sig.width {
		panic(fmt.Sprintf("hdl: driver %s: assigning width %d to signal %q of width %d",
			d.owner, len(v), d.sig.name, d.sig.width))
	}
}

// packable reports whether assignments to this driver may travel as
// packed words: compiled mode and mirror-capable width. Multi-driver
// signals qualify too — the commit resolves at word level when every
// contribution classifies (resolveWord) and falls back to the nine-value
// table otherwise.
func (d *Driver) packable() bool {
	g := d.sig
	return g.sim.fast && g.width <= 64
}

// classify refreshes the packed contribution mirror after a nine-value
// assignment: a pure two-state vector carries its word, a fully floating
// vector drops out of word resolution, anything else forces the
// nine-value table.
func (d *Driver) classify() {
	d.pstate = drvOther
	g := d.sig
	if !g.sim.fast || g.width > 64 {
		return
	}
	if w, ok := d.value.PackTwoState(); ok {
		d.pstate, d.pword = drvTwo, w
		return
	}
	for _, l := range d.value {
		if l != Z {
			return
		}
	}
	d.pstate = drvAllZ
}

// matDrv materializes a packed-committed contribution into a nine-value
// vector. It never writes in place — the current vector may be shared
// (bitLV, a parked SetZ vector) or alias a signal buffer.
func (d *Driver) matDrv() {
	if d.vstale {
		d.value = fromPacked(d.pword, d.sig.width)
		d.vstale = false
	}
}

// Set schedules an assignment after one delta cycle (VHDL "sig <= v;").
func (d *Driver) Set(v LV) { d.SetAfter(v, 0) }

// SetBit is Set for one-bit signals.
func (d *Driver) SetBit(l Logic) {
	if (l == L0 || l == L1) && d.sig.width == 1 && d.packable() {
		d.setPacked(uint64(l-L0), d.sig.sim.now)
		return
	}
	d.checkWidth(bitLV[l])
	d.preempt(d.sig.sim.now)
	d.schedule(bitLV[l], d.sig.sim.now)
}

// bitLV holds shared single-bit vectors; they are immutable by the LV
// contract (operations always return fresh slices).
var bitLV = [9]LV{{U}, {X}, {L0}, {L1}, {Z}, {W}, {WL}, {WH}, {DC}}

// SetUint is Set with an unsigned integer value.
func (d *Driver) SetUint(u uint64) {
	if d.packable() {
		d.setPacked(u&d.sig.pmask, d.sig.sim.now)
		return
	}
	v := FromUint(u, d.sig.width)
	d.checkWidth(v)
	d.preempt(d.sig.sim.now)
	d.schedule(v, d.sig.sim.now)
}

// SetAfter schedules an assignment with inertial delay (VHDL
// "sig <= v after t;"). Per inertial semantics, pending transactions that
// would occur at or after the new one are preempted; as a simplification
// pulses shorter than the delay already in the projected waveform are
// swallowed by cancelling all pending transactions at or after the new
// time.
func (d *Driver) SetAfter(v LV, delay sim.Duration) {
	d.checkWidth(v)
	if d.packable() {
		if w, ok := v.PackTwoState(); ok {
			d.setPacked(w, d.sig.sim.now+delay)
			return
		}
	}
	due := d.sig.sim.now + delay
	d.preempt(due)
	d.schedule(v.Clone(), due)
}

// setPacked schedules a packed two-state assignment with inertial
// preemption: the value is a word, no vector is allocated. Zero-delay
// assignments ride the delta ring as plain values; delayed ones take a
// pooled heap transaction.
func (d *Driver) setPacked(w uint64, due sim.Time) {
	d.preempt(due)
	s := d.sig.sim
	if due == s.now {
		s.pushRing(d, w, nil, true)
		return
	}
	t := s.newTxn()
	t.at = due
	t.drv = d
	t.packed = true
	t.pword = w
	d.pending = append(d.pending, t)
	s.push(t)
}

// preempt cancels pending transactions at or after due (inertial
// semantics). The driver's armed delta-ring entry sits at the current
// instant, so it is preempted exactly when due is now.
func (d *Driver) preempt(due sim.Time) {
	if d.ringArmed && due <= d.sig.sim.now {
		d.ringArmed = false
	}
	for _, t := range d.pending {
		if !t.dead && t.at >= due {
			t.dead = true
		}
	}
}

// SetZ parks the driver at high impedance (VHDL
// "sig <= (others => 'Z');"), releasing the signal to its other drivers.
// The all-Z vector is cached on the driver, so steady-state bus release
// allocates nothing.
func (d *Driver) SetZ() {
	if d.zval == nil {
		d.zval = NewLV(d.sig.width, Z)
	}
	due := d.sig.sim.now
	d.preempt(due)
	d.schedule(d.zval, due)
}

func (d *Driver) schedule(v LV, due sim.Time) {
	s := d.sig.sim
	if s.fast && due == s.now {
		s.pushRing(d, 0, v, false)
		return
	}
	t := s.newTxn()
	t.at = due
	t.drv = d
	t.val = v
	d.pending = append(d.pending, t)
	s.push(t)
}

// apply commits the transaction value to the driver and drops completed
// transactions from the pending list.
func (d *Driver) apply(t *txn) {
	s := d.sig.sim
	if len(d.pending) == 1 && d.pending[0] == t {
		// Common case: the applying transaction is the only pending one
		// (every zero-delay assignment preempts its predecessors first).
		d.pending[0] = nil
		d.pending = d.pending[:0]
	} else {
		live := d.pending[:0]
		for _, p := range d.pending {
			if p == t {
				continue
			}
			if p.dead {
				s.releaseTxn(p, relPending)
				continue
			}
			live = append(live, p)
		}
		for i := len(live); i < len(d.pending); i++ {
			d.pending[i] = nil
		}
		d.pending = live
	}
	if t.packed {
		d.commitPacked(t.pword)
	} else {
		d.value = t.val
		d.vstale = false
		d.classify()
		d.sig.resolve()
	}
	s.releaseTxn(t, relPending)
}

// applyRing commits a delta-ring value transaction (compiled mode). Ring
// entries are never in the pending list, so there is nothing to sweep.
func (d *Driver) applyRing(w uint64, v LV, packed bool) {
	if packed {
		d.commitPacked(w)
		return
	}
	d.value = v
	d.vstale = false
	d.classify()
	d.sig.resolve()
}

// commitPacked commits a packed transaction word to the driver. A single
// driver commits straight through commitWord; a multi-driver signal
// updates the contribution mirror (no vector is materialized) and runs
// resolution, which itself stays at word level whenever every other
// contribution classifies.
func (d *Driver) commitPacked(w uint64) {
	g := d.sig
	if len(g.drivers) != 1 {
		d.pstate, d.pword, d.vstale = drvTwo, w, true
		g.resolve()
		return
	}
	d.pstate, d.pword = drvTwo, w
	g.commitWord(d, w, true)
}

// resolveWord computes the multi-driver resolution at word level: fully
// floating drivers drop out, and the result is two-state iff the strong
// contributions agree (or there is exactly one). It reports ok=false —
// take the nine-value table instead — when any contribution is
// unclassified, all drivers float (the result carries Z), or strong
// words conflict (the result would carry X bits).
func (g *Signal) resolveWord() (uint64, bool) {
	var w uint64
	n := 0
	for _, d := range g.drivers {
		switch d.pstate {
		case drvAllZ:
		case drvTwo:
			if n > 0 && d.pword != w {
				return 0, false
			}
			w = d.pword
			n++
		default:
			return 0, false
		}
	}
	if n == 0 {
		return 0, false
	}
	return w, true
}

// commitWord is the packed counterpart of resolve's commit tail:
// word-compare instead of vector-compare, buffer rotation instead of
// allocation, and no nine-value materialization unless a probe needs it.
// d supplies the rotation buffers; alias marks the single-driver case
// where the driver's value mirrors the signal's.
func (g *Signal) commitWord(d *Driver, w uint64, alias bool) {
	if g.pknown {
		if g.pval == w {
			return
		}
	}
	// Not pknown means the current value genuinely holds a non-two-state
	// bit (the mirror is exact in compiled mode), so a two-state word is
	// always an event.
	s := g.sim
	if g.valStale && len(g.onChange) == 0 {
		// Steady-state commit: the vectors already lag their words (nothing
		// materialized since the last event) and no probe needs them, so
		// only the words rotate — the slices keep their roles and contents.
		// valStale implies pknown, so this is a two-state→two-state event:
		// no region transition, and the profiler counts it as pure.
		g.pprev, g.pprevKnown = g.pval, true
		g.prevStale = true
		g.pval = w
		if alias {
			d.vstale = true
		}
		if pr := s.prof; pr != nil {
			pr.sigEvents[g.id]++
			pr.sigTwo[g.id]++
		}
		g.fire(g.prev, g.value)
		return
	}
	oldLV := g.value
	oldStale := g.valStale
	oldK, oldP := g.pknown, g.pval
	buf := d.pbuf[d.pidx]
	if buf == nil {
		buf = make(LV, g.width)
		d.pbuf[d.pidx] = buf
	}
	d.pidx ^= 1
	g.prev = oldLV
	g.prevStale = oldStale
	g.pprev, g.pprevKnown = oldP, oldK
	g.value = buf
	if alias {
		d.value = buf
	}
	g.pval = w
	g.pknown = true
	if len(g.onChange) != 0 {
		g.matPrev()
		unpackInto(buf, w)
		g.valStale = false
		if alias {
			d.vstale = false
		}
	} else {
		g.valStale = true
		if alias {
			d.vstale = true
		}
	}
	if r := g.region; r != nil && !oldK {
		r.note(true)
	}
	if pr := s.prof; pr != nil {
		pr.sigEvents[g.id]++
		if oldK {
			pr.sigTwo[g.id]++
		}
	}
	g.fire(g.prev, buf)
}
