package hdl

import (
	"fmt"
	"io"
	"sort"

	"castanet/internal/sim"
)

// VCD dumps signal activity in Value Change Dump format, the lingua franca
// of waveform viewers. It plays the role of the HDL simulator's waveform
// debugger in the co-verification environment (Fig. 2: "VHDL debugger").
type VCD struct {
	w       io.Writer
	ids     map[*Signal]string
	lastT   sim.Time
	started bool
	err     error
	pending map[*Signal]LV
}

// NewVCD creates a dumper that records the given signals (all simulator
// signals when none are listed). The header is written immediately; value
// changes follow as the simulation runs.
func NewVCD(w io.Writer, s *Simulator, signals ...*Signal) *VCD {
	if len(signals) == 0 {
		signals = s.Signals()
	}
	v := &VCD{w: w, ids: make(map[*Signal]string), pending: make(map[*Signal]LV), lastT: -1}
	v.printf("$timescale 1ps $end\n$scope module castanet $end\n")
	for i, g := range signals {
		id := vcdID(i)
		v.ids[g] = id
		v.printf("$var wire %d %s %s $end\n", g.Width(), id, g.Name())
	}
	v.printf("$upscope $end\n$enddefinitions $end\n$dumpvars\n")
	for _, g := range signals {
		v.emit(g, g.Val())
	}
	v.printf("$end\n")
	v.started = true
	for _, g := range signals {
		g := g
		g.OnChange(func(now sim.Time, old, new LV) { v.change(now, g, new) })
	}
	return v
}

// vcdID produces the compact printable identifiers VCD uses ('!' .. '~',
// then two characters, ...).
func vcdID(i int) string {
	const lo, hi = 33, 127
	n := hi - lo
	if i < n {
		return string(rune(lo + i))
	}
	return vcdID(i/n-1) + string(rune(lo+i%n))
}

func (v *VCD) printf(format string, args ...interface{}) {
	if v.err != nil {
		return
	}
	_, v.err = fmt.Fprintf(v.w, format, args...)
}

func (v *VCD) change(now sim.Time, g *Signal, val LV) {
	if now != v.lastT {
		v.flush()
		v.printf("#%d\n", int64(now))
		v.lastT = now
	}
	// Coalesce multiple delta-cycle changes at one instant: only the final
	// value of the instant is dumped.
	v.pending[g] = val.Clone()
}

func (v *VCD) flush() {
	if len(v.pending) == 0 {
		return
	}
	// Deterministic output order.
	sigs := make([]*Signal, 0, len(v.pending))
	for g := range v.pending {
		sigs = append(sigs, g)
	}
	sort.Slice(sigs, func(i, j int) bool { return v.ids[sigs[i]] < v.ids[sigs[j]] })
	for _, g := range sigs {
		v.emit(g, v.pending[g])
	}
	v.pending = make(map[*Signal]LV)
}

// Close flushes buffered changes. Call it after the simulation finishes.
func (v *VCD) Close() error {
	v.flush()
	return v.err
}

func (v *VCD) emit(g *Signal, val LV) {
	id, ok := v.ids[g]
	if !ok {
		return
	}
	if g.Width() == 1 {
		v.printf("%s%s\n", vcdChar(val[0]), id)
		return
	}
	v.printf("b%s %s\n", vcdVector(val), id)
}

func vcdChar(l Logic) string {
	switch l {
	case L0, WL:
		return "0"
	case L1, WH:
		return "1"
	case Z:
		return "z"
	default:
		return "x"
	}
}

func vcdVector(v LV) string {
	b := make([]byte, len(v))
	for i, l := range v {
		b[len(v)-1-i] = vcdChar(l)[0]
	}
	return string(b)
}
