package hdl

import (
	"fmt"
	"testing"

	"castanet/internal/obs"
	"castanet/internal/sim"
)

// TestAbsorbedReassertion pins the absorption rule of the packed plane
// (Driver.setPacked) against the nine-value event kernel. Each case settles a small
// design, makes one set of zero-delay assignments between Steps and runs
// the instant they fall in. A delta whose only assignments leave their
// driver as it is queues nothing on the packed plane, yet keeps its
// delta count, stamp and time point; an assignment that changes its
// driver's contribution is queued, even where the signal's value already
// matches it, and so is a re-assertion while a delayed assignment is
// pending. The absorbed assignments reach hdl.sim.absorbed_assignments.
func TestAbsorbedReassertion(t *testing.T) {
	type design struct {
		s    *Simulator
		sig  *Signal
		a, b *Driver
	}
	cases := []struct {
		name     string
		bus      bool // sig has a second driver, parked at Z
		act      func(d design)
		queued   bool // the packed plane queues a ring entry
		absorbed uint64
	}{
		{"reassert", false, func(d design) { d.a.SetUint(5) }, false, 1},
		{"new then old", false, func(d design) { d.a.SetUint(6); d.a.SetUint(5) }, false, 1},
		{"changed", false, func(d design) { d.a.SetUint(6) }, true, 0},
		{"bus Z to the value it reads", true, func(d design) { d.b.SetUint(5) }, true, 0},
		{"bus reassert", true, func(d design) { d.a.SetUint(5); d.b.SetZ() }, true, 1},
		{"pending", false, func(d design) {
			d.a.SetAfter(FromUint(7, 8), 10*sim.Nanosecond)
			d.a.SetUint(5)
		}, true, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want string
			for _, compiled := range []bool{false, true} {
				s := New()
				reg := obs.NewRegistry()
				s.Instrument(reg, "hdl.sim")
				d := design{s: s, sig: s.Signal("sig", 8, U)}
				d.a = d.sig.Driver("a")
				d.a.SetUint(5)
				if c.bus {
					d.b = d.sig.Driver("b")
					d.b.SetZ()
				}
				s.nine = !compiled
				settle := func() {
					for {
						if ok, err := s.Step(); err != nil {
							t.Fatal(err)
						} else if !ok {
							return
						}
					}
				}
				settle()
				c.act(d)
				if compiled {
					if queued := s.ringPeek() != nil; queued != c.queued {
						t.Errorf("queued a ring entry: %v, want %v", queued, c.queued)
					}
				}
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("deltas=%d stamp=%d points=%d events=%d sig=%s",
					s.DeltaCycles(), s.stamp, s.TimePoints(), s.Events(), d.sig.Val())
				if d.b != nil {
					d.a.SetUint(9) // a bus driver that took the value conflicts
					settle()
					got += fmt.Sprintf(" after=%s", d.sig.Val())
				}
				settle()
				got += fmt.Sprintf(" end=%s at %v", d.sig.Val(), s.Now())
				if !compiled {
					want = got
					continue
				}
				if got != want {
					t.Errorf("compiled %s\nevent    %s", got, want)
				}
				if n := reg.Counter("hdl.sim.absorbed_assignments").Value(); n != c.absorbed {
					t.Errorf("hdl.sim.absorbed_assignments = %d, want %d", n, c.absorbed)
				}
			}
		})
	}
}

// TestBusReleaseAllocFree pins the nine-value multi-driver resolution's
// vector reuse: on a 4-driver bus, one driver asserting a value and then
// releasing it — the release leaves all four floating, which only the
// nine-value table resolves — allocates nothing once the bus has cycled,
// and the bus still reads the value, then all Z.
func TestBusReleaseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the production ones")
	}
	s := New()
	bus := s.Signal("bus", 8, U)
	var drv [4]*Driver
	for i := range drv {
		drv[i] = bus.Driver(fmt.Sprintf("d%d", i))
		drv[i].SetZ()
	}
	settle := func() {
		for {
			if ok, err := s.Step(); err != nil {
				t.Fatal(err)
			} else if !ok {
				return
			}
		}
	}
	settle()
	allZ := NewLV(8, Z)
	k := 0
	cycle := func() {
		d := drv[k%len(drv)]
		k++
		d.SetUint(0x5A)
		settle()
		if v, ok := bus.Uint(); !ok || v != 0x5A {
			t.Fatalf("driven bus reads %s, want 01011010", bus.Val())
		}
		d.SetZ()
		settle()
		if !bus.Val().Equal(allZ) {
			t.Fatalf("released bus reads %s, want all Z", bus.Val())
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("a 4-driver bus assert and release allocates %v objects, want 0", a)
	}
}
