//go:build !race

package netsim

// raceEnabled reports a -race build, whose allocation counts are not the
// production ones.
const raceEnabled = false
