package hdl

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"castanet/internal/sim"
)

// This file is the compiled≡event-driven differential harness. A byte
// program (random bytes are always a valid program) elaborates a netlist —
// input signals, structural gates, clocked registers, clocked processes
// that park and wake at random, multi-driver resolution, and a stimulus
// script that injects two-state values as well as X/Z/weak/uninitialized
// vectors — onto a fresh simulator. The same program runs once on the
// plain nine-value event kernel and once with Compile(), and every
// observable must agree: the full VCD byte stream, the per-signal waveform
// event-for-event (time, global delta index, old and new value), the
// kernel counters, and the activity profile. FuzzKernelEquivalence drives
// the same harness from the fuzzer. The same programs also check
// rising-edge sensitivity against its definition (compareEdgeSensitivity),
// idle-clock elision against a Step-driven twin (compareElision) and cycle
// stepping against plain dispatch (compareCycleStep).

const (
	diffClockPeriod = 10 * sim.Nanosecond
	diffMaxSignals  = 32
	diffMaxGates    = 64
	diffMaxStims    = 128
)

type diffReader struct {
	b []byte
	i int
}

func (r *diffReader) more() bool { return r.i < len(r.b) }

func (r *diffReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

// diffLogicTable biases stimulus toward the interesting corners: mostly
// strong two-state with every impure value reachable.
var diffLogicTable = [16]Logic{L0, L1, L0, L1, L0, L1, X, Z, W, WL, WH, U, DC, L1, L0, X}

// edgeGuard, when non-nil, makes buildDiffDesign elaborate every clocked
// process as a level-sensitive Process on clk whose body starts with
// "if !clk.Rising() { return }" — the definition Simulator.Clocked must
// match — and count the dispatches that guard rejects.
type edgeGuard struct {
	elaboration uint64 // rejected first runs: each process's elaboration run
	edges       uint64 // rejected later runs: non-rising clock events
}

// clocked registers fn on the rising edge of clk, natively or (with a
// guard) as the guarded level process.
func (eg *edgeGuard) clocked(s *Simulator, name string, clk *Signal, fn func()) *Process {
	if eg == nil {
		return s.Clocked(name, clk, fn)
	}
	first := true
	return s.Process(name, func() {
		if !clk.Rising() {
			if first {
				eg.elaboration++
			} else {
				eg.edges++
			}
			first = false
			return
		}
		first = false
		fn()
	}, clk)
}

// guardedReg is NewReg (no enable, no reset) elaborated through eg.
func guardedReg(eg *edgeGuard, s *Simulator, name string, clk, d *Signal) *Signal {
	if eg == nil {
		return NewReg(s, name, clk, d, nil, nil).Q
	}
	q := s.Signal(name+"_q", d.Width(), U)
	drv := q.Driver(name)
	eg.clocked(s, name, clk, func() {
		if d.pknown {
			drv.SetUint(d.pval)
		} else {
			drv.Set(d.Val().Clone())
		}
	})
	return q
}

// buildDiffDesign elaborates the byte program onto s. The elaboration is a
// pure function of data, so running it onto two simulators yields
// structurally identical designs with identical stimulus schedules.
func buildDiffDesign(data []byte, s *Simulator, clk *Signal, eg *edgeGuard) (all []*Signal, horizon sim.Time) {
	r := &diffReader{b: data}
	type input struct {
		sig *Signal
		drv *Driver
	}
	var ins []input
	var parkers []*Process
	all = append(all, clk)
	byWidth := map[int][]*Signal{1: {clk}}
	addSig := func(g *Signal) {
		all = append(all, g)
		byWidth[g.width] = append(byWidth[g.width], g)
	}
	gates, stims := 0, 0
	horizon = 20 * diffClockPeriod
	note := func(at sim.Time) {
		if at+20*diffClockPeriod > horizon {
			horizon = at + 20*diffClockPeriod
		}
	}
	makeLV := func(width int, kind byte) LV {
		switch kind % 4 {
		case 0:
			return NewLV(width, X)
		case 1:
			return NewLV(width, Z)
		default:
			v := make(LV, width)
			for i := range v {
				v[i] = diffLogicTable[r.next()%16]
			}
			return v
		}
	}
	for r.more() {
		switch r.next() % 12 {
		case 0: // new stimulus input
			if len(ins) >= diffMaxSignals {
				continue
			}
			w := int(r.next()%16) + 1
			g := s.Signal(fmt.Sprintf("in%d", len(ins)), w, U)
			d := g.Driver("stim")
			ins = append(ins, input{g, d})
			addSig(g)
		case 1, 2: // structural gate
			if gates >= diffMaxGates || len(all) == 0 {
				continue
			}
			op := GateOp(r.next() % 8)
			base := all[int(r.next())%len(all)]
			peers := byWidth[base.width]
			n := 1
			if op != GateBuf && op != GateNot {
				n = 2 + int(r.next()%2)
			}
			gin := make([]*Signal, n)
			for i := range gin {
				gin[i] = peers[int(r.next())%len(peers)]
			}
			out := s.Signal(fmt.Sprintf("g%d", gates), base.width, U)
			s.Gate(fmt.Sprintf("gate%d", gates), op, out, gin...)
			addSig(out)
			gates++
		case 3: // clocked register
			if len(all) == 0 || len(all) >= 2*diffMaxSignals {
				continue
			}
			d := all[int(r.next())%len(all)]
			addSig(guardedReg(eg, s, fmt.Sprintf("r%d", len(all)), clk, d))
		case 4, 5: // two-state stimulus
			if len(ins) == 0 || stims >= diffMaxStims {
				continue
			}
			in := ins[int(r.next())%len(ins)]
			u := uint64(r.next()) | uint64(r.next())<<8
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			note(sim.Time(at))
			s.Schedule(at, func() { in.drv.SetUint(u) })
			stims++
		case 6: // impure stimulus: X/Z/weak/U/DC vectors
			if len(ins) == 0 || stims >= diffMaxStims {
				continue
			}
			in := ins[int(r.next())%len(ins)]
			v := makeLV(in.sig.width, r.next())
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			note(sim.Time(at))
			s.Schedule(at, func() { in.drv.Set(v) })
			stims++
		case 7: // second driver: multi-driver resolution on an input
			if len(ins) == 0 || stims >= diffMaxStims {
				continue
			}
			in := ins[int(r.next())%len(ins)]
			d2 := in.sig.Driver("stim2")
			v := makeLV(in.sig.width, r.next())
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			note(sim.Time(at))
			s.Schedule(at, func() { d2.Set(v) })
			s.Schedule(at+3*diffClockPeriod, func() { d2.Set(NewLV(in.sig.width, Z)) })
			stims++
		case 8: // clocked process that parks and wakes at random
			if len(all) == 0 || len(all) >= 2*diffMaxSignals {
				continue
			}
			// Parking here ignores the parking contract on purpose: the
			// kernels must agree on any park/wake schedule, not only on the
			// ones that leave waveforms unchanged.
			d := all[int(r.next())%len(all)]
			wake := all[int(r.next())%len(all)]
			mode := r.next()
			name := fmt.Sprintf("k%d", len(all))
			q := s.Signal(name+"_q", d.width, U)
			drv := q.Driver(name)
			var other *Process
			if len(parkers) > 0 {
				other = parkers[int(mode>>4)%len(parkers)]
			}
			every := int(mode&3) + 1
			n := 0
			var p *Process
			p = eg.clocked(s, name, clk, func() {
				drv.Set(d.Val().Clone())
				n++
				if other != nil && n%3 == 0 {
					other.Wake()
				}
				if n%every == 0 {
					p.Park()
				}
			})
			p.WakeOn(wake)
			parkers = append(parkers, p)
			addSig(q)
		case 9: // two-state stimulus on a falling-edge instant, as E6 schedules it
			if len(ins) == 0 || stims >= diffMaxStims {
				continue
			}
			in := ins[int(r.next())%len(ins)]
			u := uint64(r.next())
			at := sim.Duration(r.next()) * diffClockPeriod
			note(sim.Time(at))
			s.Schedule(at, func() { in.drv.SetUint(u) })
			stims++
		case 10: // mid-run, clk gains a level watcher or a parker wakes on it
			if len(all) >= 2*diffMaxSignals || stims >= diffMaxStims {
				continue
			}
			mode := r.next()
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			note(sim.Time(at))
			stims++
			if mode%2 == 1 && len(parkers) > 0 {
				p := parkers[int(mode>>1)%len(parkers)]
				s.Schedule(at, func() { p.WakeOn(clk) })
				continue
			}
			name := fmt.Sprintf("l%d", len(all))
			q := s.Bit(name+"_q", U)
			drv := q.Driver(name)
			s.Schedule(at, func() {
				s.Process(name, func() { drv.Set(clk.Val().Not()) }, clk)
			})
			addSig(q)
		case 11: // mid-run (after Compile), a clocked process is registered
			if len(all) == 0 || len(all) >= 2*diffMaxSignals || stims >= diffMaxStims {
				continue
			}
			d := all[int(r.next())%len(all)]
			wake := all[int(r.next())%len(all)]
			every := int(r.next()&3) + 1
			at := sim.Duration(r.next()) * diffClockPeriod / 2
			note(sim.Time(at))
			stims++
			name := fmt.Sprintf("c%d", len(all))
			q := s.Signal(name+"_q", d.width, U)
			drv := q.Driver(name)
			s.Schedule(at, func() {
				n := 0
				var p *Process
				p = eg.clocked(s, name, clk, func() {
					drv.Set(d.Val().Clone())
					if n++; n%every == 0 {
						p.Park()
					}
				})
				p.WakeOn(wake)
			})
			addSig(q)
		}
	}
	return all, horizon
}

// diffResult captures every observable the two kernels must agree on.
type diffResult struct {
	vcd     string
	waves   map[string][]string
	events  uint64
	runs    uint64
	deltas  uint64
	points  uint64
	elided  uint64
	folded  uint64
	clk     string // clk's rising-edge count and final value
	prof    interface{}
	planErr error
}

// diffMode is how runDiffKernel drives the program to its horizon.
type diffMode int

const (
	diffRun   diffMode = iota // Run: elides, folds and dispatches rising edges directly
	diffStep                  // a plain Step loop: never elides or folds
	diffPlain                 // Run with cycle stepping off (plainDispatch)
)

// runDiffKernel runs the program to its horizon in the given mode. A
// quiet run attaches no OnChange callback to clk (the VCD and the wave
// probes watch every other signal), so on the compiled kernel the clock's
// commits take the callback-free path.
func runDiffKernel(data []byte, compiled bool, eg *edgeGuard, mode diffMode, quiet bool) *diffResult {
	s := New()
	if mode == diffPlain {
		plainDispatch(s)
	}
	s.EnableProfile()
	clk := s.Bit("clk", U)
	s.Clock(clk, diffClockPeriod)
	all, horizon := buildDiffDesign(data, s, clk, eg)
	if quiet {
		all = all[1:] // clk is the first
	}
	res := &diffResult{waves: map[string][]string{}}
	for _, g := range all {
		g := g
		g.OnChange(func(now sim.Time, old, new LV) {
			res.waves[g.name] = append(res.waves[g.name],
				fmt.Sprintf("%d@%d %s->%s", now, s.DeltaCycles(), old, new))
		})
	}
	var vcdBuf bytes.Buffer
	dumped := s.Signals()
	if quiet {
		dumped = dumped[1:] // clk is the first signal
	}
	vcd := NewVCD(&vcdBuf, s, dumped...)
	if compiled {
		if _, err := s.Compile(); err != nil {
			res.planErr = err
			return res
		}
	}
	run := s.Run
	if mode == diffStep {
		run = func(until sim.Time) error { return stepThrough(s, until) }
	}
	if err := run(horizon); err != nil {
		res.planErr = err
		return res
	}
	vcd.Close()
	res.vcd = vcdBuf.String()
	res.events = s.Events()
	res.runs = s.ProcessRuns()
	res.deltas = s.DeltaCycles()
	res.points = s.TimePoints()
	res.elided = s.ElidedEdges()
	res.folded = s.FoldedEdges()
	res.clk = fmt.Sprintf("rises=%d value=%s", s.RisingEdges(clk), clk.Val())
	res.prof = s.Profile().Snapshot()
	return res
}

// compareKernels runs the program through both kernels and reports the
// first divergence, or "" when they agree.
func compareKernels(data []byte) string {
	ev := runDiffKernel(data, false, nil, diffRun, false)
	cp := runDiffKernel(data, true, nil, diffRun, false)
	if (ev.planErr == nil) != (cp.planErr == nil) {
		return fmt.Sprintf("error divergence: event=%v compiled=%v", ev.planErr, cp.planErr)
	}
	if ev.planErr != nil {
		return "" // both failed identically (e.g. delta overflow)
	}
	if ev.events != cp.events || ev.runs != cp.runs || ev.deltas != cp.deltas || ev.points != cp.points {
		return fmt.Sprintf("counter divergence: event(ev=%d runs=%d deltas=%d points=%d) compiled(ev=%d runs=%d deltas=%d points=%d)",
			ev.events, ev.runs, ev.deltas, ev.points, cp.events, cp.runs, cp.deltas, cp.points)
	}
	if diff := compareWaves(ev, cp); diff != "" {
		return diff
	}
	if !reflect.DeepEqual(ev.prof, cp.prof) {
		return fmt.Sprintf("profile divergence:\nevent:    %+v\ncompiled: %+v", ev.prof, cp.prof)
	}
	return ""
}

// compareEdgeSensitivity runs the program with native Clocked processes
// and with each one replaced by its definition, a level process behind a
// Rising() guard, on the given kernel. VCD, waveforms, signal events,
// time points and delta cycles must be identical, and process runs must
// differ by exactly the dispatches the guard rejected: one elaboration run
// per process plus every non-rising clock event.
func compareEdgeSensitivity(data []byte, compiled bool) string {
	var eg edgeGuard
	cl := runDiffKernel(data, compiled, nil, diffRun, false)
	lv := runDiffKernel(data, compiled, &eg, diffRun, false)
	if (cl.planErr == nil) != (lv.planErr == nil) {
		return fmt.Sprintf("error divergence: clocked=%v level=%v", cl.planErr, lv.planErr)
	}
	if cl.planErr != nil {
		return ""
	}
	if cl.events != lv.events || cl.deltas != lv.deltas || cl.points != lv.points {
		return fmt.Sprintf("counter divergence: clocked(ev=%d deltas=%d points=%d) level(ev=%d deltas=%d points=%d)",
			cl.events, cl.deltas, cl.points, lv.events, lv.deltas, lv.points)
	}
	if lv.runs-cl.runs != eg.elaboration+eg.edges {
		return fmt.Sprintf("runs: level %d - clocked %d != %d elaboration + %d non-rising dispatches",
			lv.runs, cl.runs, eg.elaboration, eg.edges)
	}
	return compareWaves(cl, lv)
}

// compareElision runs the program on the given kernel with Run, which
// elides idle clock edges, and with its never-eliding twin, a Step loop.
// VCD, waveforms, the four counters and the activity profile must be
// identical.
func compareElision(data []byte, compiled bool) string {
	return compareTwins(data, compiled, diffStep, "stepping", false)
}

// compareCycleStep runs the program on the given kernel with Run and with
// its plain-dispatch twin, which neither elides, folds nor dispatches a
// rising edge directly, once with every signal probed and once with clk
// quiet. VCD, waveforms, the four counters, clk's rising edges and value,
// and the activity profile must be identical.
func compareCycleStep(data []byte, compiled bool) string {
	if diff := compareTwins(data, compiled, diffPlain, "plain", false); diff != "" {
		return diff
	}
	return compareTwins(data, compiled, diffPlain, "plain", true)
}

// compareTwins compares Run against the twin mode, which must execute
// every instant it credits.
func compareTwins(data []byte, compiled bool, mode diffMode, name string, quiet bool) string {
	el := runDiffKernel(data, compiled, nil, diffRun, quiet)
	st := runDiffKernel(data, compiled, nil, mode, quiet)
	if (el.planErr == nil) != (st.planErr == nil) {
		return fmt.Sprintf("error divergence: run=%v %s=%v", el.planErr, name, st.planErr)
	}
	if el.planErr != nil {
		return ""
	}
	if el.events != st.events || el.runs != st.runs || el.deltas != st.deltas || el.points != st.points {
		return fmt.Sprintf("counter divergence: run(ev=%d runs=%d deltas=%d points=%d) %s(ev=%d runs=%d deltas=%d points=%d)",
			el.events, el.runs, el.deltas, el.points, name, st.events, st.runs, st.deltas, st.points)
	}
	if st.elided != 0 || st.folded != 0 {
		return fmt.Sprintf("the %s twin elided %d and folded %d edges", name, st.elided, st.folded)
	}
	if el.clk != st.clk {
		return fmt.Sprintf("clk divergence: run %s, %s %s", el.clk, name, st.clk)
	}
	if diff := compareWaves(el, st); diff != "" {
		return diff
	}
	if !reflect.DeepEqual(el.prof, st.prof) {
		return fmt.Sprintf("profile divergence:\nrun:    %+v\n%s: %+v", el.prof, name, st.prof)
	}
	return ""
}

// compareWaves reports the first waveform or VCD divergence.
func compareWaves(ev, cp *diffResult) string {
	if len(ev.waves) != len(cp.waves) {
		return fmt.Sprintf("wave signal count divergence: %d vs %d", len(ev.waves), len(cp.waves))
	}
	for name, evw := range ev.waves {
		cpw := cp.waves[name]
		if len(evw) != len(cpw) {
			return fmt.Sprintf("signal %s: %d events vs %d compiled", name, len(evw), len(cpw))
		}
		for i := range evw {
			if evw[i] != cpw[i] {
				return fmt.Sprintf("signal %s event %d: event=%q compiled=%q", name, i, evw[i], cpw[i])
			}
		}
	}
	if ev.vcd != cp.vcd {
		return fmt.Sprintf("VCD divergence (%d vs %d bytes)", len(ev.vcd), len(cp.vcd))
	}
	return ""
}

// TestKernelEquivalence is the waveform property test of ISSUE 10: at the
// three pinned seeds (the kernel-equivalence CI job runs exactly these
// under -race) plus a handful of extras, a random netlist and stimulus
// program must produce byte-identical observables on both kernels.
func TestKernelEquivalence(t *testing.T) {
	seeds := []int64{11, 23, 47} // pinned: CI contract
	if !testing.Short() {
		seeds = append(seeds, 101, 211, 307, 401, 503)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 4; round++ {
				data := make([]byte, 200+rng.Intn(600))
				rng.Read(data)
				if diff := compareKernels(data); diff != "" {
					t.Fatalf("seed %d round %d: %s", seed, round, diff)
				}
			}
		})
	}
}

// TestEdgeSensitivityEquivalence is the property that defines Clocked: on
// random netlists, on both kernels, a rising-edge process is a level
// process on its clock behind a Rising() guard, minus the guard's
// rejected runs.
func TestEdgeSensitivityEquivalence(t *testing.T) {
	seeds := []int64{11, 23, 47}
	if !testing.Short() {
		seeds = append(seeds, 101, 211, 307)
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			data := make([]byte, 200+rng.Intn(600))
			rng.Read(data)
			for _, compiled := range []bool{false, true} {
				if diff := compareEdgeSensitivity(data, compiled); diff != "" {
					t.Fatalf("seed %d round %d compiled=%v: %s", seed, round, compiled, diff)
				}
			}
		}
	}
}

// TestKernelEquivalencePurityChurn drives a program that repeatedly
// demotes and promotes regions (alternating X and two-state stimulus on
// the same inputs) — the guard boundary is where a fast path would lie.
func TestKernelEquivalencePurityChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 6; round++ {
		var prog []byte
		// A few inputs and a pile of gates, then alternating stimulus.
		for i := 0; i < 4; i++ {
			prog = append(prog, 0, byte(rng.Intn(8))) // SIG
		}
		for i := 0; i < 12; i++ {
			prog = append(prog, 1, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		for i := 0; i < 40; i++ {
			if i%2 == 0 {
				prog = append(prog, 6, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))) // impure
			} else {
				prog = append(prog, 4, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))) // two-state
			}
		}
		if diff := compareKernels(prog); diff != "" {
			t.Fatalf("round %d: %s", round, diff)
		}
	}
}
