package hdl

import (
	"slices"
	"testing"

	"castanet/internal/sim"
)

// combProcess declares a combinational process: out <= fn() after one
// delta, re-evaluated on every event of an input, which is how a
// structural gate is written in VHDL.
func combProcess(s *Simulator, name string, out *Signal, fn func() LV, ins ...*Signal) {
	drv := out.Driver(name)
	s.Process(name, func() { drv.Set(fn()) }, ins...)
}

// mirrorExact fails unless every signal's packed mirror agrees with its
// nine-value value: on the packed plane a signal is packed exactly while
// its value is two-state.
func mirrorExact(t *testing.T, s *Simulator) {
	t.Helper()
	for _, g := range s.signals {
		if g.pknown != (s.fast && g.Val().TwoState()) {
			t.Errorf("%s = %s: pknown = %v on the packed plane = %v", g.name, g.Val(), g.pknown, s.fast)
		}
	}
}

// purityRig elaborates a small combinational cone of processes:
// y <= a AND b, ny <= NOT y, all 4 bits wide, with test-bench drivers on
// a and b.
type purityRig struct {
	s      *Simulator
	a, b   *Signal
	y, ny  *Signal
	da, db *Driver
}

func newPurityRig(nine bool) *purityRig {
	s := New()
	s.nine = nine
	r := &purityRig{
		s: s,
		a: s.Signal("a", 4, U),
		b: s.Signal("b", 4, U),
		y: s.Signal("y", 4, U),
	}
	r.ny = s.Signal("ny", 4, U)
	r.da = r.a.Driver("tb")
	r.db = r.b.Driver("tb")
	combProcess(s, "and_y", r.y, func() LV { return r.a.Val().And(r.b.Val()) }, r.a, r.b)
	combProcess(s, "not_y", r.ny, func() LV { return r.y.Val().Not() }, r.y)
	return r
}

// settle drives two-state values onto both inputs and runs until the
// cone is two-state.
func (r *purityRig) settle(t *testing.T) {
	t.Helper()
	r.s.Schedule(10*sim.Nanosecond, func() {
		r.da.SetUint(0b0101)
		r.db.SetUint(0b0111)
	})
	if err := r.s.Run(50 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if got := r.y.Val().String(); got != "0101" {
		t.Fatalf("y = %s after settle, want 0101", got)
	}
	mirrorExact(t, r.s)
}

// TestPurityBoundary carries each non-two-state std_logic value across
// the packed/nine-value boundary of a signal: injected mid-window into a
// two-state cone on the packed plane, it must take the signal off its
// packed mirror within the delta that commits it (asserted from an
// OnChange probe, which fires in the commit's own signal-update phase),
// produce exactly the nine-value plane's result downstream, and the
// signal must return to the mirror once the value drains.
func TestPurityBoundary(t *testing.T) {
	cases := []struct {
		inject Logic
		// expected y = a AND b with a = "0<inject>11" (bit 2 poisoned)
		// and b = "0111": y2 = inject AND 1.
		wantY string
	}{
		{X, "0X11"},  // X AND 1 = X
		{Z, "0X11"},  // Z reads as X through AND
		{W, "0X11"},  // weak unknown = X
		{U, "0X11"},  // uninitialized poisons like X
		{DC, "0X11"}, // don't-care propagates as X
		{WL, "0011"}, // weak 0 reads as 0
		{WH, "0111"}, // weak 1 reads as 1
	}
	for _, c := range cases {
		c := c
		t.Run(c.inject.String(), func(t *testing.T) {
			// The poisoned vector: bit 2 carries the injected value.
			poisoned := LV{L1, L1, c.inject, L0} // LSB first: a = "0<inject>11"
			if got := poisoned.And(MustParseLV("0111")).String(); got != c.wantY {
				t.Fatalf("test table wrong: nine-value AND gives %s, table says %s", got, c.wantY)
			}
			var ys []string
			for _, nine := range []bool{true, false} {
				r := newPurityRig(nine)
				r.settle(t)
				sameDelta := false
				r.a.OnChange(func(now sim.Time, old, new LV) {
					if new.Equal(poisoned) {
						// Fires inside the commit's signal-update phase.
						sameDelta = !r.a.pknown
					}
				})
				r.s.Schedule(10*sim.Nanosecond, func() { r.da.Set(poisoned) })
				if err := r.s.Run(100 * sim.Nanosecond); err != nil {
					t.Fatal(err)
				}
				if !sameDelta {
					t.Errorf("inject %v nine=%v: a still on its packed mirror in the committing delta", c.inject, nine)
				}
				if got := r.y.Val().String(); got != c.wantY {
					t.Errorf("inject %v nine=%v: y = %s, want %s (nine-value semantics)", c.inject, nine, got, c.wantY)
				}
				mirrorExact(t, r.s)
				ys = append(ys, r.y.Val().String()+" "+r.ny.Val().String())

				// Drain: drive a fully two-state again; a returns to its mirror.
				r.s.Schedule(10*sim.Nanosecond, func() { r.da.SetUint(0b0101) })
				if err := r.s.Run(r.s.Now() + 100*sim.Nanosecond); err != nil {
					t.Fatal(err)
				}
				if r.a.pknown != !nine {
					t.Errorf("inject %v nine=%v: a.pknown = %v after drain", c.inject, nine, r.a.pknown)
				}
				if got := r.y.Val().String(); got != "0101" {
					t.Errorf("inject %v nine=%v: y = %s after drain, want 0101", c.inject, nine, got)
				}
				mirrorExact(t, r.s)
			}
			if ys[0] != ys[1] {
				t.Errorf("inject %v: y ny = %s on the nine-value plane, %s on the packed plane", c.inject, ys[0], ys[1])
			}
		})
	}
}

// TestPurityMultiDriverZ pins the floating-bus case the DUT's internal
// buses rely on: a signal with a Z-driving second driver stays off its
// packed mirror while Z is resolved in — and a buffer passes the Z on —
// then returns to it when one driver takes over with strong values, on
// both planes alike.
func TestPurityMultiDriverZ(t *testing.T) {
	run := func(nine bool) []string {
		s := New()
		s.nine = nine
		bus := s.Signal("bus", 4, U)
		y := s.Signal("y", 4, U)
		k := s.Signal("k", 4, U)
		d1 := bus.Driver("port1")
		d2 := bus.Driver("port2")
		other := s.Signal("other", 4, U)
		do := other.Driver("tb")
		combProcess(s, "buf_bus", y, func() LV { return bus.Val() }, bus)
		combProcess(s, "and_keep", k, func() LV { return bus.Val().And(other.Val()) }, bus, other)

		// Both port drivers idle at Z: bus resolves to Z.
		s.Schedule(10*sim.Nanosecond, func() {
			d1.Set(NewLV(4, Z))
			d2.Set(NewLV(4, Z))
			do.SetUint(0xF)
		})
		if err := s.Run(50 * sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		if bus.pknown {
			t.Fatalf("nine=%v: bus on its packed mirror while it floats at Z", nine)
		}
		if got := y.Val().String(); got != "ZZZZ" {
			t.Errorf("nine=%v: y = %s with floating bus, want ZZZZ (a buffer passes Z through)", nine, got)
		}
		mirrorExact(t, s)
		out := []string{y.Val().String(), k.Val().String()}

		// One port speaks: the strong value wins resolution.
		s.Schedule(10*sim.Nanosecond, func() { d1.SetUint(0xA) })
		if err := s.Run(s.Now() + 50*sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		if bus.pknown == nine {
			t.Errorf("nine=%v: bus.pknown = %v after strong drive", nine, bus.pknown)
		}
		if got := y.Val().String(); got != "1010" {
			t.Errorf("nine=%v: y = %s after strong drive, want 1010", nine, got)
		}
		mirrorExact(t, s)
		return append(out, y.Val().String(), k.Val().String())
	}
	if ev, cp := run(true), run(false); !slices.Equal(ev, cp) {
		t.Errorf("nine-value plane %v, packed plane %v", ev, cp)
	}
}

// TestPurityLateSignal: a signal created after the first run starts on
// its packed mirror when its initial value is two-state, as one created
// before it does, so assigning the value it already holds is no event on
// either plane.
func TestPurityLateSignal(t *testing.T) {
	run := func(nine bool) []uint64 {
		s := New()
		s.nine = nine
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		var events []uint64
		for _, init := range []Logic{L0, L1, U} {
			x := s.Bit("x", init)
			d := x.Driver("p")
			mirrorExact(t, s)
			ev := s.Events()
			s.Schedule(10*sim.Nanosecond, func() { d.SetBit(L0) })
			s.Schedule(20*sim.Nanosecond, func() { d.SetBit(L1) })
			if err := s.Run(s.Now() + 100*sim.Nanosecond); err != nil {
				t.Fatal(err)
			}
			mirrorExact(t, s)
			events = append(events, s.Events()-ev)
		}
		return events
	}
	ev, cp := run(true), run(false)
	if !slices.Equal(ev, cp) || !slices.Equal(ev, []uint64{1, 2, 2}) {
		t.Errorf("events after init 0, 1, U: nine-value plane %v, packed plane %v, want [1 2 2] on both", ev, cp)
	}
}
