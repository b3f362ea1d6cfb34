package hdl

import (
	"strings"
	"testing"

	"castanet/internal/sim"
)

func TestDeltaCycleOrdering(t *testing.T) {
	// Two chained combinational processes: b <= not a; c <= not b.
	// After a changes at time T, b updates one delta later and c a delta
	// after that, all at the same simulated instant.
	s := New()
	a := s.Bit("a", L0)
	b := s.Bit("b", U)
	c := s.Bit("c", U)
	da := a.Driver("tb")
	db := b.Driver("inv1")
	dc := c.Driver("inv2")
	s.Process("inv1", func() { db.SetBit(a.Bit().Not()) }, a)
	s.Process("inv2", func() { dc.SetBit(b.Bit().Not()) }, b)
	s.Schedule(10*sim.Nanosecond, func() { da.SetBit(L1) })
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 10*sim.Nanosecond {
		t.Fatalf("Now = %v", s.Now())
	}
	if b.Bit() != L0 || c.Bit() != L1 {
		t.Fatalf("b=%v c=%v, want 0 1", b.Bit(), c.Bit())
	}
}

func TestZeroDelayNotImmediate(t *testing.T) {
	// A VHDL signal assignment never takes effect within the same delta:
	// a process reading the signal right after writing sees the old value.
	s := New()
	a := s.Bit("a", L0)
	d := a.Driver("p")
	var seen Logic = U
	s.Schedule(0, func() {
		d.SetBit(L1)
		seen = a.Bit()
	})
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if seen != L0 {
		t.Fatalf("read after write saw %v, want old value 0", seen)
	}
	if a.Bit() != L1 {
		t.Fatalf("final value %v, want 1", a.Bit())
	}
}

func TestRisingEdgeDetection(t *testing.T) {
	s := New()
	clk := s.Bit("clk", U)
	s.Clock(clk, 20*sim.Nanosecond)
	rises, falls := 0, 0
	s.Process("edge", func() {
		if clk.Rising() {
			rises++
		}
		if clk.Falling() {
			falls++
		}
	}, clk)
	if err := s.Run(205 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	// Clock low at 0, rises at 10,30,... (period 20): rising at 10+20k.
	// Up to 205ns: 10,30,...,190 -> 10 rising edges; falls at 20..200 -> 10.
	if rises != 10 {
		t.Errorf("rises = %d, want 10", rises)
	}
	if falls != 10 {
		t.Errorf("falls = %d, want 10", falls)
	}
}

func TestSynchronousCounter(t *testing.T) {
	// 8-bit counter clocked at 100MHz with synchronous reset.
	s := New()
	clk := s.Bit("clk", U)
	rst := s.Bit("rst", U)
	count := s.Signal("count", 8, U)
	s.Clock(clk, 10*sim.Nanosecond)
	drst := rst.Driver("tb")
	dcount := count.Driver("proc")
	s.Process("counter", func() {
		if clk.Rising() {
			if rst.Bit().IsHigh() {
				dcount.SetUint(0)
			} else {
				dcount.Set(count.Val().Incr())
			}
		}
	}, clk)
	drst.SetBit(L1)
	s.Schedule(12*sim.Nanosecond, func() { drst.SetBit(L0) })
	if err := s.Run(505 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	// Rising edges at 5,15,25,...; reset high for edges at 5 (and the
	// deassert lands at 12ns, so edge at 15 counts from 0).
	// Edges after reset deassert: 15,25,...,505 -> value = number of edges.
	got, ok := count.Uint()
	if !ok {
		t.Fatalf("count undefined: %v", count.Val())
	}
	want := uint64(50) // edges at 15..505 inclusive = 50 edges
	if got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
}

func TestMultipleDriversResolve(t *testing.T) {
	s := New()
	bus := s.Bit("bus", U)
	d1 := bus.Driver("a")
	d2 := bus.Driver("b")
	s.Schedule(0, func() { d1.SetBit(Z); d2.SetBit(Z) })
	s.Schedule(10*sim.Nanosecond, func() { d1.SetBit(L1) })
	s.Schedule(20*sim.Nanosecond, func() { d2.SetBit(L0) }) // contention
	s.Schedule(30*sim.Nanosecond, func() { d1.SetBit(Z) })
	var at10, at20, at30 Logic
	s.Schedule(15*sim.Nanosecond, func() { at10 = bus.Bit() })
	s.Schedule(25*sim.Nanosecond, func() { at20 = bus.Bit() })
	s.Schedule(35*sim.Nanosecond, func() { at30 = bus.Bit() })
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if at10 != L1 {
		t.Errorf("bus@15 = %v, want 1 (single driver, other Z)", at10)
	}
	if at20 != X {
		t.Errorf("bus@25 = %v, want X (contention)", at20)
	}
	if at30 != L0 {
		t.Errorf("bus@35 = %v, want 0", at30)
	}
}

func TestInertialDelayCancelsPulse(t *testing.T) {
	s := New()
	a := s.Bit("a", L0)
	d := a.Driver("p")
	var transitions []string
	a.OnChange(func(now sim.Time, old, new LV) {
		transitions = append(transitions, now.String()+":"+new.String())
	})
	// Schedule 1 after 10ns, then before it matures, overwrite with 0
	// after 5ns from t=2: inertial semantics preempt the pending 1.
	s.Schedule(0, func() { d.SetAfter(LV{L1}, 10*sim.Nanosecond) })
	s.Schedule(2*sim.Nanosecond, func() { d.SetAfter(LV{L0}, 5*sim.Nanosecond) })
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	for _, tr := range transitions {
		if strings.Contains(tr, ":1") {
			t.Errorf("preempted pulse still fired: %v", transitions)
		}
	}
}

func TestTransportDelayKeepsEarlier(t *testing.T) {
	s := New()
	a := s.Bit("a", L0)
	d := a.Driver("p")
	var log []string
	a.OnChange(func(now sim.Time, old, new LV) {
		log = append(log, now.String()+"="+new.String())
	})
	s.Schedule(0, func() {
		d.SetTransport(LV{L1}, 10*sim.Nanosecond)
		d.SetTransport(LV{L0}, 20*sim.Nanosecond) // later: keeps the 10ns txn
	})
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	want := []string{"10ns=1", "20ns=0"}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Errorf("log = %v, want %v", log, want)
	}
}

func TestDeltaOverflowDetected(t *testing.T) {
	// Combinational loop: a <= not b; b <= not a — oscillates forever at
	// one instant; the kernel must detect it rather than hang.
	s := New()
	a := s.Bit("a", L0)
	b := s.Bit("b", L0)
	da := a.Driver("p1")
	db := b.Driver("p2")
	s.Process("p1", func() { da.SetBit(b.Bit().Not()) }, b)
	s.Process("p2", func() { db.SetBit(a.Bit().Not()) }, a)
	err := s.Run(sim.Never)
	if err == nil {
		t.Fatal("combinational loop not detected")
	}
}

func TestEventCounting(t *testing.T) {
	s := New()
	clk := s.Bit("clk", U)
	s.Clock(clk, 10*sim.Nanosecond)
	if err := s.Run(100 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	// Initial U->0 plus 20 toggles in 100ns.
	if s.Events() != 21 {
		t.Errorf("Events = %d, want 21", s.Events())
	}
	if s.TimePoints() == 0 {
		t.Error("TimePoints = 0")
	}
}

func TestProcessInitialRun(t *testing.T) {
	s := New()
	ran := 0
	s.Process("init", func() { ran++ })
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("initial run count = %d, want 1", ran)
	}
}

func TestWidthMismatchAssignPanics(t *testing.T) {
	s := New()
	a := s.Signal("a", 8, U)
	d := a.Driver("p")
	defer func() {
		if recover() == nil {
			t.Error("width mismatch assign did not panic")
		}
	}()
	d.Set(NewLV(4, L0))
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	if err := s.Run(50 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 50*sim.Nanosecond {
		t.Errorf("Now = %v, want 50ns even with empty agenda", s.Now())
	}
}

// Property: the kernel is deterministic — two identically constructed
// simulations produce identical event traces.
func TestKernelDeterminismProperty(t *testing.T) {
	build := func() (*Simulator, *[]string) {
		s := New()
		clk := s.Bit("clk", U)
		s.Clock(clk, 10*sim.Nanosecond)
		d := s.Signal("d", 8, U)
		dd := d.Driver("tb")
		cnt := NewCounter(s, "c", 8, clk, nil, nil)
		var log []string
		cnt.Q.OnChange(func(now sim.Time, old, new LV) {
			log = append(log, now.String()+"="+new.String())
		})
		s.Process("mix", func() {
			if clk.Rising() {
				if v, ok := cnt.Q.Uint(); ok {
					dd.SetUint(v ^ 0xA5)
				}
			}
		}, clk)
		return s, &log
	}
	s1, l1 := build()
	s2, l2 := build()
	if err := s1.Run(5 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(5 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if s1.Events() != s2.Events() || s1.ProcessRuns() != s2.ProcessRuns() {
		t.Fatalf("event counts diverge: %d/%d vs %d/%d",
			s1.Events(), s1.ProcessRuns(), s2.Events(), s2.ProcessRuns())
	}
	if len(*l1) != len(*l2) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(*l1), len(*l2))
	}
	for i := range *l1 {
		if (*l1)[i] != (*l2)[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, (*l1)[i], (*l2)[i])
		}
	}
}

// TestFirstRunCompiles: a simulator nobody compiled runs its first instant
// on the packed plane, whichever of Run, RunBefore, RunThrough and Step
// executes it; only the nine field or UseNineValuePlane keeps it on the
// nine-value plane. A process runs at elaboration, records the plane it
// runs on and assigns 5, which wakes it once more in the same instant to
// assign 5 again: the packed plane absorbs that re-assertion, the
// nine-value plane queues it.
func TestFirstRunCompiles(t *testing.T) {
	for _, r := range []struct {
		name string
		run  func(s *Simulator) error
	}{
		{"Run", func(s *Simulator) error { return s.Run(10 * sim.Nanosecond) }},
		{"RunBefore", func(s *Simulator) error { return s.RunBefore(10 * sim.Nanosecond) }},
		{"RunThrough", func(s *Simulator) error { return s.RunThrough(10 * sim.Nanosecond) }},
		{"Step", func(s *Simulator) error { _, err := s.Step(); return err }},
	} {
		for _, plane := range []string{"packed", "nine field", "UseNineValuePlane"} {
			s := New()
			x := s.Signal("x", 8, U)
			d := x.Driver("p")
			var packed []bool
			s.Process("p", func() {
				packed = append(packed, s.fast && x.packed)
				d.SetUint(5)
			}, x)
			restore := func() {}
			switch plane {
			case "nine field":
				s.nine = true
			case "UseNineValuePlane":
				restore = UseNineValuePlane(true)
			}
			err := r.run(s)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			want := plane == "packed"
			if len(packed) != 2 || packed[0] != want || packed[1] != want {
				t.Errorf("%s, %s: the first instant's runs were packed %v, want %v twice", r.name, plane, packed, want)
			}
			if absorbed := s.absorptions > 0; absorbed != want {
				t.Errorf("%s, %s: %d absorbed assignments, want absorption %v", r.name, plane, s.absorptions, want)
			}
		}
	}
}
