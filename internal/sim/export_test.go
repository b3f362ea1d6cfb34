package sim

import (
	"fmt"
	"math"
)

// Geometric returns a geometrically distributed count >= 1 with the given
// mean (mean must be >= 1).
func (r *RNG) Geometric(mean float64) int {
	if mean < 1 {
		panic("sim: geometric mean must be >= 1")
	}
	if mean == 1 {
		return 1
	}
	p := 1 / mean
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return 1 + int(math.Log(u)/math.Log(1-p))
}

// Cancelled reports whether the event was cancelled before execution.
func (e *Event) Cancelled() bool { return e.dead }

// Cancel removes the event from its queue. Cancelling an already executed
// or cancelled event is a no-op.
func (e *Event) Cancel() { e.dead = true }

// Run executes events until the queue is empty or Stop is called. It
// returns the final simulated time.
func (s *Scheduler) Run() Time {
	return s.RunUntil(Never)
}

// Advance moves the clock forward to t without executing anything.
// Advancing past pending events or backwards panics.
func (s *Scheduler) Advance(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: Advance backwards: now=%v target=%v", s.now, t))
	}
	if next := s.NextTime(); next < t {
		panic(fmt.Sprintf("sim: Advance(%v) would skip pending event at %v", t, next))
	}
	s.now = t
}

// ClockPeriod returns the period of a clock of the given frequency in hertz.
// It panics if hz is not positive.
func ClockPeriod(hz float64) Duration {
	if hz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return Duration(float64(Second) / hz)
}

// NextTime returns the time stamp of the earliest pending event, or Never
// when the queue is empty.
func (s *Scheduler) NextTime() Time {
	e := s.queue.peek()
	if e == nil {
		return Never
	}
	return e.At
}
