//go:build !race

package hdl

// raceEnabled reports a -race build, whose allocation counts are not the
// production ones.
const raceEnabled = false
