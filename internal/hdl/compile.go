package hdl

import "sync/atomic"

// This file is the elaboration boundary of the packed data plane
// (DESIGN.md §18). The first run of a simulator — Step, Run, RunBefore or
// RunThrough — seeds every signal's packed two-state mirror from its
// current value and classifies every driver's contribution, and from then
// on zero-delay assignments ride the delta ring and two-state values
// travel as packed words. Sequential logic needs nothing more: it is
// already synchronized at clock edges (cycle.go), and the packed plane
// accelerates its signal traffic transparently.
//
// The nine-value event kernel without the packed mirrors stays only as
// the reference the kernel-equivalence tests compare against: inside the
// package they set Simulator.nine, outside it UseNineValuePlane.

// ninePlane keeps simulators that compile while it is set on the
// nine-value plane (UseNineValuePlane).
var ninePlane atomic.Bool

// UseNineValuePlane makes every simulator that runs its first instant
// from now on stay on the plain nine-value event kernel when on is set,
// and restores the previous choice when restore is called. It exists for
// the differential tests that compare the two planes from outside this
// package; a test that sets it must not run in parallel with others.
func UseNineValuePlane(on bool) (restore func()) {
	old := ninePlane.Swap(on)
	return func() { ninePlane.Store(old) }
}

// compile chooses the simulator's data plane once, at its first run, and
// moves it onto the packed plane unless the nine-value reference was
// asked for. It seeds the packed mirrors so the mirror invariant holds
// from the first packed delta, then classifies every driver's current
// contribution so word-level multi-driver resolution is exact from the
// start.
func (s *Simulator) compile() {
	s.compiled = true
	if s.nine || ninePlane.Load() {
		return
	}
	s.fast = true
	for _, g := range s.signals {
		g.packed = g.width <= 64
		g.initMirror()
	}
	for _, g := range s.signals {
		for _, d := range g.drivers {
			d.classify()
		}
	}
}
