package hdl

import (
	"bytes"
	"testing"

	"castanet/internal/sim"
)

// Park/wake ordering. The process under test copies a Go variable x into
// the signal q on every rising edge and then parks; x only ever changes
// together with a wake, so parking satisfies the contract and the design
// must be observably identical to a never-parking twin — same VCD, signal
// events and time points — while running the process fewer times. The
// three tests place the wake at the three points that matter relative to
// the process's dispatch slot.

const parkPeriod = 10 * sim.Nanosecond // rising edges at 5, 15, 25, ... ns

type parkBench struct {
	s     *Simulator
	clk   *Signal
	w     *Signal // wake signal (WakeOn)
	wd    *Driver
	x     uint64
	q     *Signal
	p     *Process
	park  bool
	asked []bool // p.parked as seen by each waker, just before it wakes
}

func newParkBench(park bool) *parkBench {
	b := &parkBench{s: New(), park: park}
	b.clk = b.s.Bit("clk", U)
	b.s.Clock(b.clk, parkPeriod)
	b.w = b.s.Bit("w", U)
	b.wd = b.w.Driver("tb")
	b.wd.SetBit(L0)
	return b
}

// addParker elaborates the process under test.
func (b *parkBench) addParker() {
	b.q = b.s.Signal("q", 8, U)
	d := b.q.Driver("p")
	b.p = b.s.Clocked("p", b.clk, func() {
		d.SetUint(b.x)
		if b.park {
			b.p.Park()
		}
	})
	b.p.WakeOn(b.w)
}

// addWaker elaborates a clocked process that, on its nth and 2nth runs,
// changes x and wakes the process under test.
func (b *parkBench) addWaker(n int) {
	runs := 0
	b.s.Clocked("waker", b.clk, func() {
		runs++
		if runs == n || runs == 2*n {
			b.asked = append(b.asked, b.p.parked)
			b.x += uint64(runs)
			b.p.Wake()
		}
	})
}

type parkObs struct {
	vcd                  string
	events, points, runs uint64
	asked                []bool
	pRuns, x, q          uint64
}

func (b *parkBench) run(t *testing.T, compiled bool) parkObs {
	t.Helper()
	var buf bytes.Buffer
	vcd := NewVCD(&buf, b.s)
	b.s.nine = !compiled
	if err := b.s.Run(200 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	vcd.Close()
	q, _ := b.q.Uint()
	return parkObs{vcd: buf.String(), events: b.s.Events(), points: b.s.TimePoints(),
		runs: b.s.ProcessRuns(), asked: b.asked, pRuns: b.p.Runs(), x: b.x, q: q}
}

// checkParkTwin builds the scenario twice — parking and never parking —
// on both kernels and compares them.
func checkParkTwin(t *testing.T, build func(b *parkBench)) {
	t.Helper()
	for _, compiled := range []bool{false, true} {
		var obs [2]parkObs
		for i, park := range []bool{true, false} {
			b := newParkBench(park)
			build(b)
			obs[i] = b.run(t, compiled)
		}
		parked, twin := obs[0], obs[1]
		if parked.vcd != twin.vcd {
			t.Errorf("compiled=%v: VCD differs from the never-parking twin:\n--- parking ---\n%s\n--- twin ---\n%s",
				compiled, parked.vcd, twin.vcd)
		}
		if parked.events != twin.events || parked.points != twin.points {
			t.Errorf("compiled=%v: events/points %d/%d, twin %d/%d",
				compiled, parked.events, parked.points, twin.events, twin.points)
		}
		if parked.pRuns >= twin.pRuns || parked.runs >= twin.runs {
			t.Errorf("compiled=%v: parking ran p %d times (twin %d), %d runs in all (twin %d)",
				compiled, parked.pRuns, twin.pRuns, parked.runs, twin.runs)
		}
		for i, was := range parked.asked {
			if !was {
				t.Errorf("compiled=%v: wake %d found p running, want parked", compiled, i)
			}
		}
		if len(parked.asked) != 2 || parked.x == 0 || parked.q != parked.x {
			t.Errorf("compiled=%v: %d wakes, q=%d at the end, want 2 wakes and q=x=%d",
				compiled, len(parked.asked), parked.q, parked.x)
		}
	}
}

// A wake in the signal-update phase of the edge delta is honoured at that
// edge. The stimulus is scheduled after the clock generator queued the
// edge, so the wake signal's event lands after the clock's in the same
// update phase: the parked process is triggered first and woken second,
// which only a dispatch-time parked check honours.
func TestParkWakeInUpdatePhase(t *testing.T) {
	checkParkTwin(t, func(b *parkBench) {
		b.addParker()
		for i, edge := range []sim.Duration{45, 105} {
			edge, v := edge*sim.Nanosecond, Logic(L1)
			if i == 1 {
				v = L0
			}
			b.s.Schedule(edge-3*sim.Nanosecond, func() {
				b.s.Schedule(3*sim.Nanosecond, func() {
					b.asked = append(b.asked, b.p.parked)
					b.x += 3
					b.wd.SetBit(v)
				})
			})
		}
	})
}

// A wake from a process dispatched earlier in the same delta is honoured
// in that delta: the process sees the new x at the same edge as the twin.
func TestParkWakeFromEarlierProcess(t *testing.T) {
	checkParkTwin(t, func(b *parkBench) {
		b.addWaker(3)
		b.addParker()
	})
}

// A wake from a process dispatched later in the same delta takes effect at
// the next edge — exactly when the never-parking twin, which already ran
// before the waker at this edge, first sees the new x.
func TestParkWakeFromLaterProcess(t *testing.T) {
	checkParkTwin(t, func(b *parkBench) {
		b.addParker()
		b.addWaker(3)
	})
}
