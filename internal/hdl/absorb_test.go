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
