package cosim

import "castanet/internal/sim"

// Flush grants the hardware a final window up to the given network time
// directly on the entity, letting in-flight cells drain out of the DUT.
// The rigs flush through their coupling instead (coverify Harness.drive).
func (e *Entity) Flush(until sim.Time) error {
	if until > e.tcur {
		e.tcur = until
		e.gmin = until
	}
	return e.runBefore(e.tcur)
}

// Now returns the co-simulation time (the newest network-simulator stamp).
func (e *Entity) Now() sim.Time { return e.tcur }
