package sim

import "math"

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

// Run executes events until the queue is empty or Stop is called. It
// returns the final simulated time.
func (s *Scheduler[E]) Run() Time {
	return s.RunUntil(Never)
}

// ClockPeriod returns the period of a clock of the given frequency in hertz.
// It panics if hz is not positive.
func ClockPeriod(hz float64) Duration {
	if hz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return Duration(float64(Second) / hz)
}
