// Package sim provides the generic discrete-event simulation kernel that
// underlies every engine in the co-verification environment: the OPNET-like
// network simulator (package netsim), the VHDL-like hardware simulator
// (package hdl) and the hardware test board model (package board).
//
// The kernel is deliberately small: simulated time, a deterministic event
// queue, a scheduler, reproducible random sources and statistics
// accumulators. Determinism is a hard requirement — the co-verification
// flow compares a device under test against a reference model event by
// event, so two runs with the same seed must be bit-for-bit identical.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, measured in integer picoseconds.
//
// Picosecond resolution matches what VHDL simulators use by default and is
// fine enough to express both the network simulator's cell-time granularity
// (microseconds) and the hardware simulator's clock granularity
// (nanoseconds) without rounding. An int64 of picoseconds covers about 106
// days of simulated time, far beyond any co-verification run.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel meaning "no scheduled time". It compares greater than
// every valid Time.
const Never Time = 1<<63 - 1

// String formats the time with an auto-selected unit, e.g. "2.73us".
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t < 0:
		return "-" + (-t).String()
	case t == 0:
		return "0s"
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return trimUnit(float64(t)/float64(Nanosecond), "ns")
	case t < Millisecond:
		return trimUnit(float64(t)/float64(Microsecond), "us")
	case t < Second:
		return trimUnit(float64(t)/float64(Millisecond), "ms")
	default:
		return trimUnit(float64(t)/float64(Second), "s")
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to simulated Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }
