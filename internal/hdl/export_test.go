package hdl

import (
	"fmt"

	"castanet/internal/sim"
)

// plainDispatch switches cycle stepping off for s: no clock is eligible,
// so nothing elides or folds and every edge goes through the plain
// trigger path. It is the twin the cycle-stepping tests compare against.
func plainDispatch(s *Simulator) {
	s.plain = true
	for _, g := range s.signals {
		g.rederive()
	}
}

// MustParseLV is ParseLV that panics on error, for literals in tests.
func MustParseLV(s string) LV {
	v, err := ParseLV(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Byte converts an 8-bit (or narrower) vector to a byte.
func (v LV) Byte() (byte, bool) {
	u, ok := v.Uint()
	if !ok || len(v) > 8 {
		return 0, false
	}
	return byte(u), ok
}

// Not returns the bitwise inverse.
func (v LV) Not() LV {
	r := make(LV, len(v))
	for i := range v {
		r[i] = v[i].Not()
	}
	return r
}

// And returns the bitwise AND. Widths must match.
func (v LV) And(o LV) LV { return v.zip(o, Logic.And) }

// Or returns the bitwise OR. Widths must match.
func (v LV) Or(o LV) LV { return v.zip(o, Logic.Or) }

// Xor returns the bitwise XOR. Widths must match.
func (v LV) Xor(o LV) LV { return v.zip(o, Logic.Xor) }

// Slice returns bits [lo, lo+width) as a new vector (VHDL slice of a
// downto range).
func (v LV) Slice(lo, width int) LV {
	if lo < 0 || lo+width > len(v) {
		panic(fmt.Sprintf("hdl: slice [%d,%d) out of range of width %d", lo, lo+width, len(v)))
	}
	return v[lo : lo+width].Clone()
}

// Concat returns o & v in VHDL terms: o becomes the new most significant
// part.
func (v LV) Concat(o LV) LV {
	r := make(LV, 0, len(v)+len(o))
	r = append(r, v...)
	r = append(r, o...)
	return r
}

// Level returns the gate's topological level in the compiled plan (0 =
// fed only by non-gate signals). Valid after Compile.
func (gt *Gate) Level() int { return gt.level }

// Gate declares a structural combinational gate driving out from ins.
// The output must not have any other driver (the gate owns it), widths
// must match, and the width must fit the packed representation (≤ 64).
// Gates must be declared before Compile.
func (s *Simulator) Gate(name string, op GateOp, out *Signal, ins ...*Signal) *Gate {
	if s.fast {
		panic(fmt.Sprintf("hdl: gate %q declared after Compile", name))
	}
	switch {
	case op == GateBuf || op == GateNot:
		if len(ins) != 1 {
			panic(fmt.Sprintf("hdl: gate %q: %v takes exactly one input, got %d", name, op, len(ins)))
		}
	default:
		if len(ins) < 2 {
			panic(fmt.Sprintf("hdl: gate %q: %v takes at least two inputs, got %d", name, op, len(ins)))
		}
	}
	if out.width > 64 {
		panic(fmt.Sprintf("hdl: gate %q: output %q wider than 64 bits", name, out.name))
	}
	if len(out.drivers) != 0 {
		panic(fmt.Sprintf("hdl: gate %q: output %q already has a driver", name, out.name))
	}
	for _, in := range ins {
		if in.width != out.width {
			panic(fmt.Sprintf("hdl: gate %q: input %q width %d vs output width %d", name, in.name, in.width, out.width))
		}
	}
	gt := &Gate{name: name, op: op, out: out, ins: ins, mask: packMask(out.width)}
	gt.drv = out.Driver("gate:" + name)
	gt.proc = s.Process(name, gt.run, ins...)
	gt.proc.gate = gt
	s.gates = append(s.gates, gt)
	return gt
}

// Signals returns how many signals belong to the region.
func (r *Region) Signals() int { return r.signals }

// Demotions returns how many times the region left the bit-parallel path.
func (r *Region) Demotions() uint64 { return r.demotions }

// Promotions returns how many times the region re-entered the
// bit-parallel path after draining its impure values.
func (r *Region) Promotions() uint64 { return r.promotions }

// Gates returns the number of compiled gates.
func (pl *Plan) Gates() int { return len(pl.gates) }

// Depth returns the number of topological levels.
func (pl *Plan) Depth() int { return len(pl.levels) }

// Regions returns the purity regions.
func (pl *Plan) Regions() []*Region { return pl.regions }

// CompiledPlan returns the active plan, or nil before Compile.
func (s *Simulator) CompiledPlan() *Plan { return s.plan }

// Profile returns the attached activity profiler, nil when profiling is
// disabled.
func (s *Simulator) Profile() *ActivityProfile { return s.prof }

// Event reports whether the signal changed value in the delta cycle that
// triggered the currently running process ("sig'event" in VHDL).
func (g *Signal) Event() bool { return g.eventStamp == g.sim.stamp }

// Falling reports a 1→0 edge in the current delta.
func (g *Signal) Falling() bool {
	if g.width != 1 || g.eventStamp != g.sim.stamp {
		return false
	}
	if g.pknown && g.pprevKnown {
		return g.pval&1 == 0 && g.pprev&1 != 0
	}
	return g.Prev()[0].IsHigh() && g.Val()[0].IsLow()
}

// Sig returns the driven signal.
func (d *Driver) Sig() *Signal { return d.sig }

// SetTransport schedules an assignment with transport delay (VHDL
// "sig <= transport v after t;"): transactions later than the new one are
// deleted, earlier ones are kept, modeling an ideal delay line.
func (d *Driver) SetTransport(v LV, delay sim.Duration) {
	d.checkWidth(v)
	due := d.sig.sim.now + delay
	for _, t := range d.pending {
		if !t.dead && t.at > due {
			t.dead = true
		}
	}
	d.schedule(v.Clone(), due)
}

// Runs returns how many times the process body has executed.
func (p *Process) Runs() uint64 { return p.runs }

// RunOne is Step for callers that treat errors as fatal (tests).
func (s *Simulator) RunOne() bool {
	ok, err := s.Step()
	if err != nil {
		panic(err)
	}
	return ok
}

// Incr returns v + 1 modulo 2^width.
func (v LV) Incr() LV {
	one := NewLV(len(v), L0)
	if len(one) > 0 {
		one[0] = L1
	}
	s, _ := v.Add(one)
	return s
}

// ParseLV parses a VHDL-style bit string, most significant bit first,
// e.g. "10ZX".
func ParseLV(s string) (LV, error) {
	v := make(LV, len(s))
	for i := 0; i < len(s); i++ {
		l, err := ParseLogic(s[len(s)-1-i])
		if err != nil {
			return nil, err
		}
		v[i] = l
	}
	return v, nil
}

// Add returns v + o modulo 2^width plus the carry-out. Any undefined input
// bit makes the whole result X.
func (v LV) Add(o LV) (sum LV, carry Logic) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("hdl: width mismatch %d vs %d", len(v), len(o)))
	}
	if !v.Defined() || !o.Defined() {
		return NewLV(len(v), X), X
	}
	sum = make(LV, len(v))
	c := Logic(L0)
	for i := range v {
		a, b := v[i].to01(), o[i].to01()
		s := a.Xor(b).Xor(c)
		c = a.And(b).Or(c.And(a.Xor(b)))
		sum[i] = s
	}
	return sum, c
}

// ParseLogic converts a VHDL character literal to a Logic value.
func ParseLogic(c byte) (Logic, error) {
	for i, n := range logicNames {
		if n == c || (c >= 'a' && c <= 'z' && n == c-'a'+'A') {
			return Logic(i), nil
		}
	}
	return U, fmt.Errorf("hdl: invalid std_logic literal %q", string(c))
}

// Defined reports whether every bit is a defined binary level.
func (v LV) Defined() bool {
	for _, l := range v {
		if !l.Defined() {
			return false
		}
	}
	return true
}

// Defined reports whether the value is a defined binary level.
func (l Logic) Defined() bool { return l.to01() != X }

func (v LV) zip(o LV, op func(Logic, Logic) Logic) LV {
	if len(v) != len(o) {
		panic(fmt.Sprintf("hdl: width mismatch %d vs %d", len(v), len(o)))
	}
	r := make(LV, len(v))
	for i := range v {
		r[i] = op(v[i], o[i])
	}
	return r
}

// ElidedEdges returns how many clock edges bounded runs have skipped
// instead of executing. Every elided edge is also counted in TimePoints,
// Events and DeltaCycles, as is every folded one (FoldedEdges), so
// TimePoints()-ElidedEdges()-FoldedEdges() is the number of instants
// actually executed.
func (s *Simulator) ElidedEdges() uint64 { return s.elided }

// FoldedEdges returns how many falling clock edges bounded runs have
// folded instead of executing as a Step. Like elided edges, folded ones
// are counted in TimePoints, Events and DeltaCycles, so
// TimePoints()-ElidedEdges()-FoldedEdges() is the number of instants
// actually executed.
func (s *Simulator) FoldedEdges() uint64 { return s.folded }

// NextTime returns the time of the earliest pending transaction, or
// sim.Never when idle.
func (s *Simulator) NextTime() sim.Time {
	if s.ringPeek() != nil {
		return s.now
	}
	if t := s.agendaPeek(); t != nil {
		return t.at
	}
	if len(s.runnable) > 0 || s.ndirty > 0 {
		return s.now
	}
	return sim.Never
}
