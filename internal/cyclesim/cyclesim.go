// Package cyclesim is a cycle-based simulation engine: devices advance one
// clock per Tick with plain binary values, no event queue, no delta
// cycles, no nine-valued logic. The paper's conclusion calls for exactly
// this ("the integration of cycle-based simulation techniques is
// required") because event-driven HDL simulation is the bottleneck of the
// co-verification flow.
//
// Cycle-based devices serve two roles here: they are the ablation
// comparison for experiment E6 (event-driven vs cycle-based execution of
// the same hardware), and they stand in for the real silicon mounted on
// the hardware test board of package board — a fabricated chip is, from
// the board's perspective, a black box that consumes and produces pin
// values once per board clock.
package cyclesim

// Dir is a port direction from the device's point of view.
type Dir int

// Port directions.
const (
	In Dir = iota
	Out
)

// Port describes one pin group of a cycle-based device.
type Port struct {
	Name  string
	Width int // bits, <= 64
	Dir   Dir
}

// Device is a clocked black box: Tick consumes this cycle's input pin
// values and returns the output pin values, in the order reported by
// Ports. Implementations must be deterministic functions of their input
// history since Reset.
type Device interface {
	// Ports lists all pin groups; inputs and outputs may interleave.
	Ports() []Port
	// Reset returns the device to its power-on state.
	Reset()
	// Tick advances one clock. in holds one value per input port (in
	// Ports order, skipping outputs); the result holds one value per
	// output port (in Ports order, skipping inputs).
	Tick(in []uint64) []uint64
}
