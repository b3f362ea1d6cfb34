package hdl

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the compiled fast path's control plane (DESIGN.md §18),
// after CCSS: at elaboration the structural combinational logic — gates
// declared with Simulator.Gate (export_test.go; today only the kernel
// tests declare gates, the device models declare none) — is levelized
// into a topologically sorted evaluation plan, and the connected gate
// cones become purity-guarded regions. While every signal of a region is
// two-state pure, its gates evaluate bit-parallel on packed words
// (bitpack.go); the moment an X/Z/weak/uninitialized value commits into
// the region it demotes to the full IEEE-1164 nine-value event kernel,
// and it promotes back when the last such value drains. Sequential logic
// (clocked processes such as the DUT port machines) needs no plan — it is
// already synchronized at clock edges, and the packed data plane
// accelerates its signal traffic transparently.
//
// Evaluation stays delta-exact: a dirty gate runs in the process phase of
// the delta in which an input changed, and its output assignment matures
// one delta later, exactly as the equivalent sensitivity-list process
// would under the event kernel. The plan changes how a gate evaluates
// (packed word ops vs nine-value vectors) and how it is located (dirty
// set drained in level order vs generic trigger list) — never when.
// That is what makes waveforms, metrics, coverage, trace and profile
// byte-identical across the two kernels.

// GateOp is a structural combinational operator.
type GateOp uint8

// The gate operators. Buf and Not take exactly one input; the others take
// two or more and fold left, matching the nine-value LV operations.
const (
	GateBuf GateOp = iota
	GateNot
	GateAnd
	GateOr
	GateXor
	GateNand
	GateNor
	GateXnor
)

var gateOpNames = [...]string{"buf", "not", "and", "or", "xor", "nand", "nor", "xnor"}

// String returns the operator mnemonic.
func (op GateOp) String() string {
	if int(op) < len(gateOpNames) {
		return gateOpNames[op]
	}
	return fmt.Sprintf("gateop(%d)", int(op))
}

func (op GateOp) inverting() bool {
	return op == GateNot || op == GateNand || op == GateNor || op == GateXnor
}

// Gate is one structural combinational operator instance: out <= op(ins)
// after one delta. In event-kernel mode it is an ordinary process on the
// input sensitivity list; in compiled mode it is evaluated from the
// levelized plan, bit-parallel while its region is pure.
type Gate struct {
	name   string
	op     GateOp
	out    *Signal
	ins    []*Signal
	drv    *Driver
	proc   *Process
	mask   uint64
	level  int
	region *Region
	dirty  bool
}

// run evaluates the gate: bit-parallel on packed words while the region is
// pure in compiled mode, per-bit nine-value otherwise.
func (gt *Gate) run() {
	s := gt.out.sim
	if s.fast && gt.region.impure == 0 {
		// Every signal of the region — all inputs included — is two-state
		// pure, so the packed mirrors are authoritative.
		acc := gt.ins[0].pval
		switch gt.op {
		case GateAnd, GateNand:
			for _, in := range gt.ins[1:] {
				acc &= in.pval
			}
		case GateOr, GateNor:
			for _, in := range gt.ins[1:] {
				acc |= in.pval
			}
		case GateXor, GateXnor:
			for _, in := range gt.ins[1:] {
				acc ^= in.pval
			}
		}
		if gt.op.inverting() {
			acc = ^acc
		}
		gt.drv.SetUint(acc & gt.mask)
		return
	}
	gt.drv.Set(gt.evalClassic())
}

// evalClassic computes the gate function in the nine-value domain with X
// propagation, folding left like the LV operations.
func (gt *Gate) evalClassic() LV {
	out := gt.ins[0].Val().Clone()
	for _, in := range gt.ins[1:] {
		v := in.Val()
		for i := range out {
			switch gt.op {
			case GateAnd, GateNand:
				out[i] = out[i].And(v[i])
			case GateOr, GateNor:
				out[i] = out[i].Or(v[i])
			case GateXor, GateXnor:
				out[i] = out[i].Xor(v[i])
			}
		}
	}
	if gt.op.inverting() {
		for i := range out {
			out[i] = out[i].Not()
		}
	}
	return out
}

// Region is a connected component of the gate graph with a purity guard:
// impure counts member signals currently holding any non-two-state bit.
// While impure is zero the region's gates evaluate bit-parallel; the
// commit that brings an X/Z/weak value in demotes the region within the
// same delta cycle, and the commit that drains the last one promotes it
// back.
type Region struct {
	id         int
	signals    int
	impure     int
	demotions  uint64
	promotions uint64
}

// Demoted reports whether the region is currently evaluating on the
// nine-value event kernel.
func (r *Region) Demoted() bool { return r.impure > 0 }

// note records one member signal crossing the two-state boundary.
func (r *Region) note(pure bool) {
	if pure {
		r.impure--
		if r.impure == 0 {
			r.promotions++
		}
	} else {
		if r.impure == 0 {
			r.demotions++
		}
		r.impure++
	}
}

// Plan is the compiled evaluation plan: every gate, levelized, with its
// purity regions.
type Plan struct {
	gates   []*Gate
	levels  [][]*Gate
	dirty   [][]*Gate // per-level dirty lists, drained each delta
	regions []*Region
}

// String summarizes the plan for diagnostics.
func (pl *Plan) String() string {
	demoted := 0
	for _, r := range pl.regions {
		if r.Demoted() {
			demoted++
		}
	}
	return fmt.Sprintf("plan{gates=%d levels=%d regions=%d demoted=%d}",
		len(pl.gates), len(pl.levels), len(pl.regions), demoted)
}

// runDirty evaluates the dirty gates of the current delta in level order,
// with the same run accounting the generic process phase applies. A gate
// evaluation only schedules transactions (commits happen next delta), so
// no new gates become dirty while draining.
func (pl *Plan) runDirty(s *Simulator) {
	for li := range pl.dirty {
		lvl := pl.dirty[li]
		for _, gt := range lvl {
			gt.dirty = false
			gt.proc.triggered = false
			s.runProcess(gt.proc)
		}
		if len(lvl) > 0 {
			pl.dirty[li] = lvl[:0]
		}
	}
	s.ndirty = 0
}

// Compiled reports whether the compiled fast path is active.
func (s *Simulator) Compiled() bool { return s.fast }

// Compile levelizes the declared gates into an evaluation plan, forms the
// purity regions, seeds every signal's packed mirror from its current
// value, and switches the simulator onto the compiled data plane. It is
// the elaboration boundary: call it after the design is built and before
// (or between) Steps. Compiling twice returns the same plan; a
// combinational cycle among gates is an error.
func (s *Simulator) Compile() (*Plan, error) {
	if s.plan != nil {
		return s.plan, nil
	}
	pl := &Plan{gates: s.gates}

	// Levelize: level(g) = 1 + max level over gate-driven inputs.
	prod := make(map[*Signal]*Gate, len(s.gates))
	for _, gt := range s.gates {
		prod[gt.out] = gt
	}
	cons := make(map[*Gate][]*Gate)
	indeg := make(map[*Gate]int, len(s.gates))
	for _, gt := range s.gates {
		indeg[gt] = 0
	}
	for _, gt := range s.gates {
		for _, in := range gt.ins {
			if p := prod[in]; p != nil {
				cons[p] = append(cons[p], gt)
				indeg[gt]++
			}
		}
	}
	queue := make([]*Gate, 0, len(s.gates))
	for _, gt := range s.gates { // creation order keeps the plan deterministic
		if indeg[gt] == 0 {
			queue = append(queue, gt)
		}
	}
	depth, done := 0, 0
	for len(queue) > 0 {
		gt := queue[0]
		queue = queue[1:]
		done++
		if gt.level+1 > depth {
			depth = gt.level + 1
		}
		for _, c := range cons[gt] {
			if gt.level+1 > c.level {
				c.level = gt.level + 1
			}
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if done < len(s.gates) {
		var cyc []string
		for _, gt := range s.gates {
			if indeg[gt] > 0 {
				cyc = append(cyc, gt.name)
			}
		}
		sort.Strings(cyc)
		return nil, fmt.Errorf("hdl: combinational cycle through gates: %s", strings.Join(cyc, ", "))
	}
	pl.levels = make([][]*Gate, depth)
	pl.dirty = make([][]*Gate, depth)
	for _, gt := range s.gates {
		pl.levels[gt.level] = append(pl.levels[gt.level], gt)
	}

	// Regions: connected components of the gate graph over shared signals.
	parent := make(map[*Signal]*Signal)
	var find func(*Signal) *Signal
	find = func(g *Signal) *Signal {
		p, ok := parent[g]
		if !ok || p == g {
			parent[g] = g
			return g
		}
		root := find(p)
		parent[g] = root
		return root
	}
	union := func(a, b *Signal) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, gt := range s.gates {
		for _, in := range gt.ins {
			union(in, gt.out)
		}
	}
	roots := make(map[*Signal]*Region)
	for _, gt := range s.gates { // creation order → deterministic region ids
		members := append([]*Signal{gt.out}, gt.ins...)
		for _, m := range members {
			root := find(m)
			r := roots[root]
			if r == nil {
				r = &Region{id: len(pl.regions)}
				roots[root] = r
				pl.regions = append(pl.regions, r)
			}
			if m.region == nil {
				m.region = r
				r.signals++
			}
		}
		gt.region = gt.out.region
	}

	// Rewire gate sensitivity from the generic trigger list to the dirty
	// set: commits mark gates dirty directly, and the plan drains them in
	// level order.
	for _, gt := range s.gates {
		for _, in := range gt.ins {
			live := in.watchers[:0]
			for _, w := range in.watchers {
				if w != gt.proc {
					live = append(live, w)
				}
			}
			for i := len(live); i < len(in.watchers); i++ {
				in.watchers[i] = nil
			}
			in.watchers = live
			in.gwatch = append(in.gwatch, gt)
			in.rederive()
		}
	}

	// Seed the packed mirrors and count region impurity from the current
	// values, so the guard state is exact from the first compiled delta.
	for _, g := range s.signals {
		g.packed = g.width <= 64
		g.initMirror()
		if g.region != nil && !g.pknown {
			g.region.impure++
		}
	}
	for _, r := range pl.regions {
		if r.impure > 0 {
			r.demotions++
		}
	}

	s.plan = pl
	s.fast = true

	// Classify every driver's current contribution so word-level
	// multi-driver resolution is exact from the first compiled delta.
	for _, g := range s.signals {
		for _, d := range g.drivers {
			d.classify()
		}
	}

	// Migrate pending elaboration triggers of gate processes into the
	// dirty set; their initial run now happens level-ordered.
	if len(s.runnable) > 0 {
		live := s.runnable[:0]
		for _, p := range s.runnable {
			if p.gate != nil {
				p.triggered = false
				s.markDirty(p.gate)
			} else {
				live = append(live, p)
			}
		}
		for i := len(live); i < len(s.runnable); i++ {
			s.runnable[i] = nil
		}
		s.runnable = live
	}
	return pl, nil
}

// MustCompile is Compile for rigs that treat a cycle as fatal.
func (s *Simulator) MustCompile() *Plan {
	pl, err := s.Compile()
	if err != nil {
		panic(err)
	}
	return pl
}
