package hdl

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"castanet/internal/obs"
	"castanet/internal/sim"
)

// Idle-clock elision (elide.go) against its never-eliding twin: the same
// design driven by plain Step loops, which never elide. Every observable
// must agree — waveforms, VCD bytes, the four kernel counters, Now(),
// per-process runs, the activity profile and the clock's rising-edge
// count — while the eliding run skips edges.

const elidePeriod = 10 * sim.Nanosecond // edges every 5 ns, rising at 5, 15, 25, ...

// elideBench is a random design shaped so that elision happens: the clock's
// only watchers are clocked processes that park at random and wake on
// stimulus inputs, level processes and gates read only the inputs, and the
// stimulus is sparse. Its runner drives it in bounded chunks and injects
// wakes and stimulus between the calls, exactly at the bound, the way the
// co-simulation entity applies messages between its runs.
type elideBench struct {
	s     *Simulator
	clk   *Signal
	ins   []*Driver
	sigs  []*Signal
	procs []*Process
	waves map[string][]string
	vcd   bytes.Buffer
}

func newElideBench(seed int64, compiled, withVCD bool) *elideBench {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	s.EnableProfile()
	b := &elideBench{s: s, waves: map[string][]string{}}
	b.clk = s.Bit("clk", U)
	s.Clock(b.clk, elidePeriod)
	nin := 1 + rng.Intn(4)
	for i := 0; i < nin; i++ {
		g := s.Signal(fmt.Sprintf("in%d", i), 1+rng.Intn(8), U)
		b.ins = append(b.ins, g.Driver("stim"))
		b.sigs = append(b.sigs, g)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		a := b.ins[rng.Intn(nin)].Sig()
		out := s.Signal(fmt.Sprintf("g%d", i), a.Width(), U)
		s.Gate(fmt.Sprintf("gate%d", i), GateOp(rng.Intn(8)%2), out, a) // buf or not
		b.sigs = append(b.sigs, out)
	}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		src := b.sigs[rng.Intn(len(b.sigs))]
		wake := b.ins[rng.Intn(nin)].Sig()
		q := s.Signal(fmt.Sprintf("q%d", i), src.Width(), U)
		d := q.Driver("p")
		every, runs := 1+rng.Intn(4), 0
		var p *Process
		p = s.Clocked(fmt.Sprintf("p%d", i), b.clk, func() {
			d.Set(src.Val().Clone())
			runs++
			if runs%every == 0 {
				p.Park()
			}
		})
		p.WakeOn(wake)
		b.procs = append(b.procs, p)
		b.sigs = append(b.sigs, q)
	}
	if rng.Intn(4) != 0 {
		// A level process on an input that wakes a clocked process: at an
		// edge, whether it is dispatched before or after the clocked one
		// decides whether the wake is honoured at that edge.
		in := b.ins[rng.Intn(nin)].Sig()
		lv := s.Signal("lvl", in.Width(), U)
		d := lv.Driver("lvl")
		p := b.procs[rng.Intn(len(b.procs))]
		s.Process("lvl", func() {
			d.Set(in.Val().Not())
			p.Wake()
		}, in)
		b.sigs = append(b.sigs, lv)
	}
	for i, n := 0, 2+rng.Intn(8); i < n; i++ {
		d, v := b.ins[rng.Intn(nin)], uint64(rng.Int63())
		s.Schedule(sim.Duration(rng.Intn(400))*elidePeriod/4, func() { d.SetUint(v) })
	}
	watched := b.sigs
	if withVCD {
		NewVCD(&b.vcd, s)
		watched = append([]*Signal{b.clk}, b.sigs...)
	}
	for _, g := range watched {
		g := g
		g.OnChange(func(now sim.Time, old, new LV) {
			b.waves[g.name] = append(b.waves[g.name],
				fmt.Sprintf("%d@%d/%d %s->%s", now, s.DeltaCycles(), s.TimePoints(), old, new))
		})
	}
	if compiled {
		s.MustCompile()
	}
	return b
}

// stepBefore and stepThrough are the never-eliding twins of RunBefore and
// RunThrough: the loops the co-simulation entity used to run.
func stepBefore(s *Simulator, t sim.Time) error {
	for s.NextTime() < t {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

func stepThrough(s *Simulator, t sim.Time) error {
	for s.NextTime() <= t {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// drive runs the bench in random bounded chunks, eliding or stepping. The
// schedule draws from its own generator, so both twins see the same
// bounds and injections as long as they agree on Now().
func (b *elideBench) drive(seed int64, elide bool) error {
	rng := rand.New(rand.NewSource(seed))
	var bound sim.Time
	for chunk := 0; chunk < 40; chunk++ {
		bound += sim.Duration(rng.Intn(60)) * elidePeriod / 4
		var err error
		switch through := rng.Intn(2) == 0; {
		case elide && through:
			err = b.s.RunThrough(bound)
		case elide:
			err = b.s.RunBefore(bound)
		case through:
			err = stepThrough(b.s, bound)
		default:
			err = stepBefore(b.s, bound)
		}
		if err != nil {
			return err
		}
		// Scheduled stimulus reads the clock, so whether it runs before or
		// after an edge due at the same instant shows in the waveforms.
		d, v := b.ins[rng.Intn(len(b.ins))], uint64(rng.Int63())
		stim := func() { d.SetUint(v + uint64(b.clk.Bit())) }
		switch rng.Intn(5) {
		case 0: // wake a process directly, as a message's apply would
			b.procs[rng.Intn(len(b.procs))].Wake()
		case 1: // stimulus exactly at the bound
			b.s.Schedule(bound-b.s.Now(), stim)
		case 2: // stimulus on a later clock edge, queued behind the pending toggle
			half := elidePeriod / 2
			at := (bound/half + sim.Time(1+rng.Intn(8))) * half
			b.s.Schedule(at-b.s.Now(), stim)
		case 3: // zero-delay stimulus at the current instant
			d.SetUint(v)
		}
	}
	return nil
}

// elideObs is everything the twins must agree on.
type elideObs struct {
	counters string
	runs     []uint64
	values   []string
	waves    map[string][]string
	vcd      string
	prof     obs.ActivitySnap
}

func (b *elideBench) observe() elideObs {
	s := b.s
	o := elideObs{
		counters: fmt.Sprintf("events=%d runs=%d deltas=%d points=%d now=%d rises=%d",
			s.Events(), s.ProcessRuns(), s.DeltaCycles(), s.TimePoints(), s.Now(), s.RisingEdges(b.clk)),
		waves: b.waves,
		vcd:   b.vcd.String(),
		prof:  s.Profile().Snapshot(),
	}
	for _, p := range s.processes {
		o.runs = append(o.runs, p.Runs())
	}
	for _, g := range s.Signals() {
		o.values = append(o.values, g.Val().String())
	}
	return o
}

func diffElideObs(el, st elideObs) string {
	switch {
	case el.counters != st.counters:
		return fmt.Sprintf("counters: eliding %s, stepping %s", el.counters, st.counters)
	case !reflect.DeepEqual(el.runs, st.runs):
		return fmt.Sprintf("process runs: eliding %v, stepping %v", el.runs, st.runs)
	case !reflect.DeepEqual(el.values, st.values):
		return fmt.Sprintf("final values: eliding %v, stepping %v", el.values, st.values)
	case !reflect.DeepEqual(el.waves, st.waves):
		for name, w := range st.waves {
			if !reflect.DeepEqual(el.waves[name], w) {
				return fmt.Sprintf("signal %s: eliding %v\nstepping %v", name, el.waves[name], w)
			}
		}
		return "wave signal sets differ"
	case el.vcd != st.vcd:
		return fmt.Sprintf("VCD differs:\n--- eliding ---\n%s\n--- stepping ---\n%s", el.vcd, st.vcd)
	case !reflect.DeepEqual(el.prof, st.prof):
		return fmt.Sprintf("profile: eliding %+v\nstepping %+v", el.prof, st.prof)
	}
	return ""
}

// TestElideEquivalence is the elision wall: random elidable designs, on
// both kernels, with a VCD attached (OnChange replay) and without
// (arithmetic crediting), driven in bounded chunks with wakes and
// stimulus injected exactly at the bounds, agree with their Step-driven
// twin on every observable. The seeds must elide between them, so the
// property cannot hold vacuously.
func TestElideEquivalence(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	var elided uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, compiled := range []bool{false, true} {
			for _, withVCD := range []bool{false, true} {
				el := newElideBench(seed, compiled, withVCD)
				st := newElideBench(seed, compiled, withVCD)
				if err := el.drive(seed, true); err != nil {
					t.Fatal(err)
				}
				if err := st.drive(seed, false); err != nil {
					t.Fatal(err)
				}
				if st.s.ElidedEdges() != 0 {
					t.Fatalf("seed %d: the Step twin elided %d edges", seed, st.s.ElidedEdges())
				}
				if diff := diffElideObs(el.observe(), st.observe()); diff != "" {
					t.Fatalf("seed %d compiled=%v vcd=%v: %s", seed, compiled, withVCD, diff)
				}
				elided += el.s.ElidedEdges()
			}
		}
	}
	if elided == 0 {
		t.Fatal("no seed elided an edge: the property held vacuously")
	}
	t.Logf("%d edges elided across %d seeds", elided, seeds)
}

// contractBench is a clock with one clocked process that parks after its
// first run and records when it runs, plus its Step-driven twin.
type contractBench struct {
	s   *Simulator
	clk *Signal
	p   *Process
	at  []sim.Time
}

// newContractBench elaborates the bench, lets build add to it, and
// compiles it when asked.
func newContractBench(compiled bool, build func(b *contractBench)) *contractBench {
	b := &contractBench{s: New()}
	b.clk = b.s.Bit("clk", U)
	b.s.Clock(b.clk, elidePeriod)
	b.p = b.s.Clocked("p", b.clk, func() {
		b.at = append(b.at, b.s.Now())
		b.p.Park()
	})
	build(b)
	if compiled {
		b.s.MustCompile()
	}
	return b
}

func noBuild(*contractBench) {}

func (b *contractBench) String() string {
	return fmt.Sprintf("now=%d events=%d deltas=%d points=%d runs=%d clk=%v rises=%d at=%v",
		b.s.Now(), b.s.Events(), b.s.DeltaCycles(), b.s.TimePoints(), b.s.ProcessRuns(),
		b.clk.Bit(), b.s.RisingEdges(b.clk), b.at)
}

// checkContract runs build+run on an eliding bench and build+step on its
// twin, on both kernels, requires them to agree, and returns the eliding
// benches' elided edge counts.
func checkContract(t *testing.T, build func(b *contractBench), run func(b *contractBench) error, step func(b *contractBench) error) [2]uint64 {
	t.Helper()
	var elided [2]uint64
	for i, compiled := range []bool{false, true} {
		el, st := newContractBench(compiled, build), newContractBench(compiled, build)
		if err := run(el); err != nil {
			t.Fatal(err)
		}
		if err := step(st); err != nil {
			t.Fatal(err)
		}
		if el.String() != st.String() {
			t.Errorf("compiled=%v:\neliding  %s\nstepping %s", compiled, el, st)
		}
		elided[i] = el.s.ElidedEdges()
	}
	return elided
}

// A bound that falls between the two edges of a pair: the elided count
// stays even and the odd leftover edge runs as an ordinary instant.
func TestElideOddLeftoverEdgeRuns(t *testing.T) {
	const bound = 32 * sim.Nanosecond // edges 10..30 are five: four elide, 30 runs
	got := checkContract(t, noBuild,
		func(b *contractBench) error { return b.s.RunThrough(bound) },
		func(b *contractBench) error { return stepThrough(b.s, bound) })
	for _, n := range got {
		if n != 4 {
			t.Errorf("elided %d edges, want 4", n)
		}
	}
}

// A non-clock entry exactly on an edge bounds the jump: elision stops
// strictly before it, and the edge it shares runs in order with it (here
// the entry wakes the process, which then runs at that very edge).
func TestElideStopsAtEntryOnEdge(t *testing.T) {
	const edge = 45 * sim.Nanosecond
	build := func(b *contractBench) { b.s.Schedule(edge, b.p.Wake) }
	got := checkContract(t, build,
		func(b *contractBench) error { return b.s.RunThrough(100 * sim.Nanosecond) },
		func(b *contractBench) error { return stepThrough(b.s, 100*sim.Nanosecond) })
	for _, n := range got {
		// 10..35 before the entry, 50..95 after it; 40 and 100 run.
		if n != 6+10 {
			t.Errorf("elided %d edges, want 16", n)
		}
	}
	b := newContractBench(true, build)
	if err := b.s.RunThrough(100 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if want := []sim.Time{5 * sim.Nanosecond, edge}; !reflect.DeepEqual(b.at, want) {
		t.Errorf("process ran at %v, want %v", b.at, want)
	}
}

// Anything else that observes the clock switches elision off: a level
// process on it, a structural gate reading it (a compiled gate on the
// compiled kernel), or a process woken by its events. The parked clocked
// process alone elides.
func TestElideOffWhenClockObserved(t *testing.T) {
	run := func(b *contractBench) error { return b.s.RunThrough(sim.Microsecond) }
	step := func(b *contractBench) error { return stepThrough(b.s, sim.Microsecond) }
	for _, c := range []struct {
		name  string
		build func(b *contractBench)
		elide bool
	}{
		{"parked clocked only", noBuild, true},
		{"level process", func(b *contractBench) {
			var p *Process
			p = b.s.Process("lvl", func() { p.Park() }, b.clk)
		}, false},
		{"gate", func(b *contractBench) {
			b.s.Gate("inv", GateNot, b.s.Bit("nclk", U), b.clk)
		}, false},
		{"waker", func(b *contractBench) {
			x := b.s.Bit("x", L0)
			var p *Process
			p = b.s.Process("w", func() { p.Park() }, x)
			p.WakeOn(b.clk)
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range checkContract(t, c.build, run, step) {
				if (n > 0) != c.elide {
					t.Errorf("elided %d edges, want elision %v", n, c.elide)
				}
			}
		})
	}
}

// With no other agenda entry an unbounded run has nowhere to jump to: the
// elision check refuses (t.at + k·half would overflow) and Run(sim.Never)
// executes the clock edge by edge.
func TestElideRunNeverNoOverflow(t *testing.T) {
	b := newContractBench(true, noBuild)
	if err := b.s.RunThrough(5 * sim.Nanosecond); err != nil { // p runs and parks
		t.Fatal(err)
	}
	next := b.s.agendaPeek()
	if !next.edge {
		t.Fatal("the earliest entry is not the clock's toggle")
	}
	if c := next.clock(); b.s.elide(next, c, sim.Never, true) || b.s.elide(next, c, sim.Never, false) {
		t.Fatal("elided with no later entry under an unbounded run")
	}
	const stopAfter = 1000
	type stop struct{}
	toggles := 0
	b.clk.OnChange(func(now sim.Time, old, new LV) {
		if toggles++; toggles == stopAfter {
			panic(stop{})
		}
	})
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stop); !ok {
					panic(r)
				}
			}
		}()
		b.s.Run(sim.Never)
		t.Fatal("Run(sim.Never) returned with a free-running clock")
	}()
	if want := 5*sim.Nanosecond + stopAfter*elidePeriod/2; b.s.Now() != want {
		t.Errorf("stopped at %v, want %v", b.s.Now(), want)
	}
	if n := b.s.ElidedEdges(); n != 0 {
		t.Errorf("elided %d edges under Run(sim.Never)", n)
	}
}

// The elided edge count is published as hdl.sim.elided_edges, and the
// other metrics and the activity profile count every elided edge as an
// ordinary clk event.
func TestElidedEdgesMetric(t *testing.T) {
	b := newContractBench(true, noBuild)
	reg := obs.NewRegistry()
	b.s.Instrument(reg, "hdl.sim")
	prof := b.s.EnableProfile()
	if err := b.s.Run(sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	n := b.s.ElidedEdges()
	if n == 0 {
		t.Fatal("nothing elided")
	}
	if got := reg.Counter("hdl.sim.elided_edges").Value(); got != n {
		t.Errorf("hdl.sim.elided_edges = %d, ElidedEdges() = %d", got, n)
	}
	if got := reg.Counter("hdl.sim.time_points").Value(); got != b.s.TimePoints() {
		t.Errorf("hdl.sim.time_points = %d, TimePoints() = %d", got, b.s.TimePoints())
	}
	snap := prof.Snapshot()
	if len(snap.Signals) != 1 || snap.Signals[0].Events != b.s.Events() || snap.Signals[0].TwoState != b.s.Events()-1 {
		t.Errorf("profile %+v, kernel events %d", snap.Signals, b.s.Events())
	}
}
