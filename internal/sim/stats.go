package sim

import (
	"fmt"
	"math"
)

// Accumulator collects streaming summary statistics (Welford's algorithm,
// numerically stable) for scalar observations: cell delays, queue
// occupancies, message sizes.
type Accumulator struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() uint64 { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the sample variance (0 for fewer than two observations).
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Stddev returns the sample standard deviation.
func (a *Accumulator) Stddev() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// String summarizes the accumulator for reports.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		a.n, a.Mean(), a.Stddev(), a.Min(), a.Max())
}
