package hdl

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"castanet/internal/obs"
	"castanet/internal/sim"
)

// Cycle stepping (cycle.go) against plain dispatch: the same design, driven
// the same way by bounded runs, once with cycle stepping and once with it
// switched off (plainDispatch), which neither elides, folds nor dispatches
// a rising edge directly. Every observable must agree — VCD bytes,
// waveforms, the four kernel counters, Now(), per-process runs, coverage
// sampled inside the process bodies and the activity profile.

const cyclePeriod = 10 * sim.Nanosecond // rising edges at 5, 15, ... ns; falling at 10, 20, ...

// cycleMode is how a cycleBench observes its clock and how many clocked
// processes it has.
type cycleMode int

const (
	// cycleVCD attaches a VCD and wave probes to every signal, clk
	// included.
	cycleVCD cycleMode = iota
	// cycleQuiet leaves clk without any OnChange callback, so on the
	// compiled kernel its commits take the callback-free path; clk is
	// checked through RisingEdges, the counters, the per-process runs and
	// its final value.
	cycleQuiet
	// cycleWide is cycleQuiet with 66 to 140 clocked processes, so the
	// clock's awake mask spans two or three words.
	cycleWide
)

// cycleBench is a random design on one kernel clock whose watchers are
// clocked processes that park and wake (each other too, in the same
// delta), with a level process on a stimulus input and stimulus scheduled
// on rising and falling edges. Mid-run, some designs gain a level watcher
// on the clock or a waker on it — which ends eligibility — and some gain a
// clocked process registered after Compile, from a scheduled callback or
// between two bounded runs.
type cycleBench struct {
	s      *Simulator
	clk    *Signal
	ins    []*Driver
	sigs   []*Signal
	procs  []*Process
	late   []func() // mid-run changes applied between two bounded runs
	lateAt int      // the chunk after which they apply
	waves  map[string][]string
	vcd    bytes.Buffer
	cov    *obs.CoverRegistry
	order  *obs.CoverCross
	last   string
	lastAt sim.Time
	// clkAt records clk's value and Prev() after every bounded run;
	// reading Prev materializes the word-only commit's lazy vector.
	clkAt []string
	// direct and fallback count the first clocked process's runs by how
	// its edge reached it: direct dispatch, or plain triggers. quick
	// counts the ones whose edge an eligible clock committed by the
	// callback-free word rotation, and high the direct dispatches of the
	// process in slot 64, the first slot of the mask's second word.
	direct, fallback, quick, high int
}

func newCycleBench(seed int64, compiled, plain bool, mode cycleMode) *cycleBench {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	if plain {
		plainDispatch(s)
	}
	s.EnableProfile()
	b := &cycleBench{s: s, waves: map[string][]string{}, cov: obs.NewCoverRegistry(), lastAt: -1}
	b.clk = s.Bit("clk", U)
	s.Clock(b.clk, cyclePeriod)
	nin := 1 + rng.Intn(3)
	for i := 0; i < nin; i++ {
		g := s.Signal(fmt.Sprintf("in%d", i), 1+rng.Intn(8), U)
		b.ins = append(b.ins, g.Driver("stim"))
		b.sigs = append(b.sigs, g)
	}
	if rng.Intn(2) == 0 {
		a := b.ins[rng.Intn(nin)].Sig()
		out := s.Signal("g0", a.Width(), U)
		s.Gate("gate0", GateNot, out, a)
		b.sigs = append(b.sigs, out)
	}
	nproc := 2 + rng.Intn(4)
	if mode == cycleWide {
		nproc = 66 + rng.Intn(75)
	}
	names := []string{"none"}
	for i := 0; i < nproc; i++ {
		names = append(names, fmt.Sprintf("p%d", i))
	}
	names = append(names, "late")
	b.order = b.cov.Group("cycle").Cross("order", names, names)
	for i := 0; i < nproc; i++ {
		b.addClocked(rng, fmt.Sprintf("p%d", i))
	}
	if rng.Intn(4) != 0 {
		// A level process on an input that wakes a clocked process: a
		// stimulus commit in an edge's delta triggers it beside the edge.
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
		at := sim.Duration(rng.Intn(200)) * cyclePeriod / 2 // any edge
		if rng.Intn(2) == 0 {
			at = sim.Duration(1+rng.Intn(100)) * cyclePeriod // a falling edge, as E6 schedules
		}
		s.Schedule(at, func() { d.SetUint(v) })
	}
	b.lateAt = 10 + rng.Intn(25)
	switch rng.Intn(6) {
	case 0: // a level watcher on clk
		nclk := s.Bit("nclk", U)
		d := nclk.Driver("nclk")
		b.sigs = append(b.sigs, nclk)
		b.late = append(b.late, func() {
			s.Process("lvl_clk", func() { d.Set(b.clk.Val().Not()) }, b.clk)
		})
	case 1: // a waker on clk
		p := b.procs[rng.Intn(len(b.procs))]
		b.late = append(b.late, func() { p.WakeOn(b.clk) })
	case 2, 3: // a clocked process registered between two bounded runs
		b.late = append(b.late, b.lateClocked(rng))
	case 4: // a clocked process registered by a callback, inside a Step
		s.Schedule(sim.Duration(20+rng.Intn(200))*cyclePeriod/2, b.lateClocked(rng))
	}
	if mode == cycleVCD {
		NewVCD(&b.vcd, s)
	} else {
		NewVCD(&b.vcd, s, b.sigs...)
	}
	for _, g := range b.sigs {
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

// clockedBody returns the body of a clocked process that latches src into
// q, samples the run order into coverage, wakes peer every third run (a
// later peer is honoured in the same delta, an earlier one at the next
// edge) and parks every every runs.
func (b *cycleBench) clockedBody(name string, p **Process, src *Signal, d *Driver, peer *Process, every int) func() {
	n := 0
	return func() {
		if b.procs[0] == *p && len(b.procs) > 1 {
			if b.procs[1].triggered {
				b.fallback++
			} else {
				b.direct++
			}
			// prevStale after the commit is the word-only commit's mark:
			// the generic commit leaves it as valStale was before.
			if b.clk.prevStale && b.clk.clk.eligible {
				b.quick++
			}
		}
		if len(b.procs) > 65 && b.procs[64] == *p && (*p).slot == 64 && !b.procs[len(b.procs)-1].triggered {
			b.high++
		}
		prev := "none"
		if b.lastAt == b.s.Now() {
			prev = b.last
		}
		b.order.Hit(name, prev)
		b.last, b.lastAt = name, b.s.Now()
		d.Set(src.Val().Clone())
		n++
		if peer != nil && n%3 == 0 {
			peer.Wake()
		}
		if n%every == 0 {
			(*p).Park()
		}
	}
}

func (b *cycleBench) addClocked(rng *rand.Rand, name string) {
	src := b.sigs[rng.Intn(len(b.sigs))]
	q := b.s.Signal(name+"_q", src.Width(), U)
	var peer *Process
	if len(b.procs) > 0 && rng.Intn(2) == 0 {
		peer = b.procs[rng.Intn(len(b.procs))]
	}
	var p *Process
	p = b.s.Clocked(name, b.clk, b.clockedBody(name, &p, src, q.Driver(name), peer, 1+rng.Intn(4)))
	p.WakeOn(b.ins[rng.Intn(len(b.ins))].Sig())
	if peer != nil && rng.Intn(2) == 0 {
		b.procs[0].WakeOn(q) // an earlier process woken by a later one's output
	}
	b.procs = append(b.procs, p)
	b.sigs = append(b.sigs, q)
}

// lateClocked elaborates the signal of a clocked process now and returns
// the registration, which runs mid-run.
func (b *cycleBench) lateClocked(rng *rand.Rand) func() {
	src := b.sigs[rng.Intn(len(b.sigs))]
	q := b.s.Signal("late_q", src.Width(), U)
	d := q.Driver("late")
	wake := b.ins[rng.Intn(len(b.ins))].Sig()
	every := 1 + rng.Intn(4)
	b.sigs = append(b.sigs, q)
	return func() {
		var p *Process
		p = b.s.Clocked("late", b.clk, b.clockedBody("late", &p, src, d, nil, every))
		p.WakeOn(wake)
	}
}

// drive runs the bench in random bounded chunks and injects wakes and
// stimulus between them: at the bound, on a later falling edge, and on a
// later rising edge queued behind the pending toggle, so the clock's
// commit precedes the stimulus commit in that edge's delta.
func (b *cycleBench) drive(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	var bound sim.Time
	for chunk := 0; chunk < 40; chunk++ {
		bound += sim.Duration(rng.Intn(60)) * cyclePeriod / 4
		var err error
		if rng.Intn(2) == 0 {
			err = b.s.RunThrough(bound)
		} else {
			err = b.s.RunBefore(bound)
		}
		if err != nil {
			return err
		}
		b.clkAt = append(b.clkAt, fmt.Sprintf("%d %v/%v", b.s.Now(), b.clk.Bit(), b.clk.Prev()))
		if chunk == b.lateAt {
			for _, f := range b.late {
				f()
			}
		}
		d, v := b.ins[rng.Intn(len(b.ins))], uint64(rng.Int63())
		stim := func() { d.SetUint(v + uint64(b.clk.Bit())) }
		later := (bound/cyclePeriod + 1 + sim.Time(rng.Intn(8))) * cyclePeriod
		switch rng.Intn(6) {
		case 0:
			b.procs[rng.Intn(len(b.procs))].Wake()
		case 1:
			b.s.Schedule(bound-b.s.Now(), stim)
		case 2: // a falling edge
			b.s.Schedule(later-b.s.Now(), stim)
		case 3: // a rising edge
			b.s.Schedule(later+cyclePeriod/2-b.s.Now(), stim)
		case 4:
			d.SetUint(v)
		}
	}
	return nil
}

// cycleObs is everything the twins must agree on.
type cycleObs struct {
	counters string
	clkAt    []string
	runs     []uint64
	values   []string
	waves    map[string][]string
	vcd      string
	prof     obs.ActivitySnap
	cover    []obs.CoverGroupSnap
}

func (b *cycleBench) observe() cycleObs {
	s := b.s
	o := cycleObs{
		counters: fmt.Sprintf("events=%d runs=%d deltas=%d points=%d now=%d rises=%d",
			s.Events(), s.ProcessRuns(), s.DeltaCycles(), s.TimePoints(), s.Now(), s.RisingEdges(b.clk)),
		clkAt: b.clkAt,
		waves: b.waves,
		vcd:   b.vcd.String(),
		prof:  s.Profile().Snapshot(),
		cover: b.cov.Snapshot(),
	}
	for _, p := range s.processes {
		o.runs = append(o.runs, p.Runs())
	}
	for _, g := range s.Signals() {
		o.values = append(o.values, g.Val().String())
	}
	return o
}

func diffCycleObs(cy, pl cycleObs) string {
	switch {
	case cy.counters != pl.counters:
		return fmt.Sprintf("counters: cycle %s, plain %s", cy.counters, pl.counters)
	case !reflect.DeepEqual(cy.clkAt, pl.clkAt):
		return fmt.Sprintf("clk after each run: cycle %v, plain %v", cy.clkAt, pl.clkAt)
	case !reflect.DeepEqual(cy.runs, pl.runs):
		return fmt.Sprintf("process runs: cycle %v, plain %v", cy.runs, pl.runs)
	case !reflect.DeepEqual(cy.values, pl.values):
		return fmt.Sprintf("final values: cycle %v, plain %v", cy.values, pl.values)
	case !reflect.DeepEqual(cy.waves, pl.waves):
		for name, w := range pl.waves {
			if !reflect.DeepEqual(cy.waves[name], w) {
				return fmt.Sprintf("signal %s: cycle %v\nplain %v", name, cy.waves[name], w)
			}
		}
		return "wave signal sets differ"
	case cy.vcd != pl.vcd:
		return fmt.Sprintf("VCD differs:\n--- cycle ---\n%s\n--- plain ---\n%s", cy.vcd, pl.vcd)
	case !reflect.DeepEqual(cy.prof, pl.prof):
		return fmt.Sprintf("profile: cycle %+v\nplain %+v", cy.prof, pl.prof)
	case !reflect.DeepEqual(cy.cover, pl.cover):
		return fmt.Sprintf("coverage: cycle %+v\nplain %+v", cy.cover, pl.cover)
	}
	return ""
}

// TestCycleStepEquivalence is the cycle-stepping wall: random designs on
// both kernels, driven in bounded chunks with stimulus on falling and
// rising edges, mid-run watchers, wakers and clocked processes, and
// same-delta wakes, agree with their plain-dispatch twin on every
// observable — with a VCD on every signal, with no callback on the clock,
// and with more clocked processes than one mask word holds. Between them
// the seeds must fold edges, dispatch rising edges directly, fall back to
// plain triggers, commit the clock by the callback-free word rotation and
// directly dispatch a process in the mask's second word, so the property
// cannot hold vacuously.
func TestCycleStepEquivalence(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 10
	}
	var folded, direct, fallback, quick, high uint64
	for _, mode := range []cycleMode{cycleVCD, cycleQuiet, cycleWide} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			for _, compiled := range []bool{false, true} {
				cy := newCycleBench(seed, compiled, false, mode)
				pl := newCycleBench(seed, compiled, true, mode)
				if err := cy.drive(seed); err != nil {
					t.Fatal(err)
				}
				if err := pl.drive(seed); err != nil {
					t.Fatal(err)
				}
				if pl.s.FoldedEdges() != 0 || pl.s.ElidedEdges() != 0 || pl.direct != 0 || pl.quick != 0 {
					t.Fatalf("mode %d seed %d: the plain twin folded %d, elided %d, dispatched %d edges directly and committed %d by word rotation",
						mode, seed, pl.s.FoldedEdges(), pl.s.ElidedEdges(), pl.direct, pl.quick)
				}
				if diff := diffCycleObs(cy.observe(), pl.observe()); diff != "" {
					t.Fatalf("mode %d seed %d compiled=%v: %s", mode, seed, compiled, diff)
				}
				folded += cy.s.FoldedEdges()
				direct += uint64(cy.direct)
				fallback += uint64(cy.fallback)
				quick += uint64(cy.quick)
				high += uint64(cy.high)
			}
		}
	}
	if folded == 0 || direct == 0 || fallback == 0 || quick == 0 || high == 0 {
		t.Fatalf("folded %d edges, dispatched %d directly, %d by plain triggers, committed %d by word rotation and %d directly in slot 64: the property held vacuously",
			folded, direct, fallback, quick, high)
	}
	t.Logf("%d seeds per mode: %d edges folded, %d rising edges dispatched directly, %d by plain triggers, %d committed by word rotation, %d dispatched directly in slot 64",
		seeds, folded, direct, fallback, quick, high)
}

// A free-running clock with one never-parking clocked process: every
// falling edge inside the bound is alone in its instant and folds, every
// rising edge executes, the counters credit both, and hdl.sim.folded_edges
// publishes the folds.
func TestFoldedEdgesMetric(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		s := New()
		reg := obs.NewRegistry()
		s.Instrument(reg, "hdl.sim")
		clk := s.Bit("clk", U)
		s.Clock(clk, cyclePeriod)
		var at []sim.Time
		q := s.Signal("q", 8, U)
		d := q.Driver("p")
		s.Clocked("p", clk, func() {
			at = append(at, s.Now())
			d.SetUint(uint64(len(at)))
		})
		if compiled {
			s.MustCompile()
		}
		if err := s.RunThrough(sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		// Edges at 5, 10, ..., 1000 ns after the elaboration instant at 0.
		if got := s.FoldedEdges(); got != 100 {
			t.Errorf("compiled=%v: folded %d edges, want the 100 falling ones", compiled, got)
		}
		// Each rising edge takes a second delta for q's commit.
		if s.TimePoints() != 201 || s.Events() != 301 || s.DeltaCycles() != 301 || len(at) != 100 {
			t.Errorf("compiled=%v: points=%d events=%d deltas=%d runs=%d, want 201/301/301/100",
				compiled, s.TimePoints(), s.Events(), s.DeltaCycles(), len(at))
		}
		if got := reg.Counter("hdl.sim.folded_edges").Value(); got != s.FoldedEdges() {
			t.Errorf("hdl.sim.folded_edges = %d, FoldedEdges() = %d", got, s.FoldedEdges())
		}
		if got := reg.Counter("hdl.sim.time_points").Value(); got != s.TimePoints() {
			t.Errorf("hdl.sim.time_points = %d, TimePoints() = %d", got, s.TimePoints())
		}
		if clk.Bit() != L0 || s.Now() != sim.Microsecond {
			t.Errorf("compiled=%v: clk=%v now=%v after the last fold", compiled, clk.Bit(), s.Now())
		}
		// The fold is a delta of its own: the falling edge is the current
		// event, the previous instant's events are not.
		if !clk.Falling() || q.Event() {
			t.Errorf("compiled=%v: after the last fold clk.Falling()=%v q.Event()=%v, want true and false",
				compiled, clk.Falling(), q.Event())
		}
	}
}

// A falling edge that shares its instant with another entry executes as a
// Step, and a Step loop never folds.
func TestFoldOnlyLoneFallingEdges(t *testing.T) {
	s := New()
	clk := s.Bit("clk", U)
	s.Clock(clk, cyclePeriod)
	x := s.Bit("x", U)
	d := x.Driver("tb")
	s.Clocked("p", clk, func() {})
	s.Schedule(20*sim.Nanosecond, func() { d.SetBit(L1) })
	if err := s.RunThrough(30 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if got := s.FoldedEdges(); got != 2 { // 10 and 30; 20 holds the stimulus
		t.Errorf("folded %d edges, want 2", got)
	}
	if err := stepThrough(s, 60*sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if got := s.FoldedEdges(); got != 2 {
		t.Errorf("a Step loop folded %d edges", got-2)
	}
}

// A fold re-schedules the toggle with a fresh seq, as the executed toggle
// does: stimulus queued for the next rising edge before the fold still
// commits ahead of the clock there, so the level process it triggers runs
// first and the edge falls back to plain triggers.
func TestFoldReschedulesWithFreshSeq(t *testing.T) {
	for _, plain := range []bool{false, true} {
		for _, compiled := range []bool{false, true} {
			s := New()
			if plain {
				plainDispatch(s)
			}
			clk := s.Bit("clk", U)
			s.Clock(clk, cyclePeriod)
			x := s.Bit("x", L0)
			d := x.Driver("tb")
			var order []string
			s.Clocked("a", clk, func() { order = append(order, fmt.Sprintf("a@%d", s.Now())) })
			s.Process("lvl", func() { order = append(order, fmt.Sprintf("lvl@%d", s.Now())) }, x)
			if compiled {
				s.MustCompile()
			}
			if err := s.RunThrough(5 * sim.Nanosecond); err != nil {
				t.Fatal(err)
			}
			s.Schedule(10*sim.Nanosecond, func() { d.SetBit(L1) }) // the rising edge at 15 ns
			if err := s.RunThrough(15 * sim.Nanosecond); err != nil {
				t.Fatal(err)
			}
			want := []string{"lvl@0", "a@5000", "lvl@15000", "a@15000"}
			if !reflect.DeepEqual(order, want) {
				t.Errorf("plain=%v compiled=%v: ran %v, want %v", plain, compiled, order, want)
			}
			if !plain && s.FoldedEdges() != 1 {
				t.Errorf("compiled=%v: folded %d edges, want the one at 10 ns", compiled, s.FoldedEdges())
			}
		}
	}
}

// The eligibility verdict and the unparked count follow every change of
// the clock's observers: Clocked keeps it, a level watcher, a waker, a
// second driver or a compiled gate ends it, and Park and Wake move the
// count.
func TestClockEligibility(t *testing.T) {
	for _, c := range []struct {
		name     string
		build    func(s *Simulator, clk *Signal)
		eligible bool
	}{
		{"clocked only", func(s *Simulator, clk *Signal) {}, true},
		{"level watcher", func(s *Simulator, clk *Signal) { s.Process("lvl", func() {}, clk) }, false},
		{"waker", func(s *Simulator, clk *Signal) {
			s.Process("w", func() {}, s.Bit("x", L0)).WakeOn(clk)
		}, false},
		{"second driver", func(s *Simulator, clk *Signal) { clk.Driver("other") }, false},
		{"compiled gate", func(s *Simulator, clk *Signal) { s.Gate("inv", GateNot, s.Bit("nclk", U), clk) }, false},
	} {
		s := New()
		clk := s.Bit("clk", U)
		p := s.Clocked("p", clk, func() {}) // registered before the clock exists
		s.Clock(clk, cyclePeriod)
		q := s.Clocked("q", clk, func() {})
		c.build(s, clk)
		s.MustCompile()
		k := clk.clk
		if k.eligible != c.eligible || len(k.awake) != 1 || k.awake[0] != 0b11 {
			t.Errorf("%s: eligible=%v awake=%b, want %v and 11", c.name, k.eligible, k.awake, c.eligible)
		}
		p.Park()
		p.Park()
		q.Park()
		q.Wake()
		if k.awake[0] != 0b10 {
			t.Errorf("%s: awake=%b after two parks of p and a park and wake of q, want 10", c.name, k.awake)
		}
	}
}

// A rising edge held for direct dispatch runs its clocked processes, in
// registration order, before a level process that a later commit in its
// delta triggers — as plain triggering orders them.
func TestDirectDispatchLaterTrigger(t *testing.T) {
	for _, plain := range []bool{false, true} {
		for _, compiled := range []bool{false, true} {
			s := New()
			if plain {
				plainDispatch(s)
			}
			clk := s.Bit("clk", U)
			s.Clock(clk, cyclePeriod)
			x := s.Bit("x", L0)
			d := x.Driver("tb")
			var order []string
			for _, name := range []string{"a", "b"} {
				name := name
				s.Clocked(name, clk, func() { order = append(order, fmt.Sprintf("%s@%d", name, s.Now())) })
			}
			s.Process("lvl", func() { order = append(order, fmt.Sprintf("lvl@%d", s.Now())) }, x)
			if compiled {
				s.MustCompile()
			}
			if err := s.RunThrough(10 * sim.Nanosecond); err != nil {
				t.Fatal(err)
			}
			// Queued behind the toggle due at 15 ns, so the clock commits
			// first in that delta.
			s.Schedule(5*sim.Nanosecond, func() { d.SetBit(L1) })
			if err := s.RunThrough(15 * sim.Nanosecond); err != nil {
				t.Fatal(err)
			}
			want := []string{"lvl@0", "a@5000", "b@5000", "a@15000", "b@15000", "lvl@15000"}
			if !reflect.DeepEqual(order, want) {
				t.Errorf("plain=%v compiled=%v: ran %v, want %v", plain, compiled, order, want)
			}
		}
	}
}

// A Clocked process registered after its clock's rising edge committed,
// later in the same delta, is not dispatched at that edge: direct dispatch
// runs the watchers the edge had, as plain triggering would.
func TestDirectDispatchWatchersAtEdge(t *testing.T) {
	for _, plain := range []bool{false, true} {
		for _, compiled := range []bool{false, true} {
			s := New()
			if plain {
				plainDispatch(s)
			}
			clk := s.Bit("clk", U)
			s.Clock(clk, cyclePeriod)
			var at []string
			s.Clocked("a", clk, func() { at = append(at, fmt.Sprintf("a@%d", s.Now())) })
			if compiled {
				s.MustCompile()
			}
			if err := s.RunThrough(10 * sim.Nanosecond); err != nil {
				t.Fatal(err)
			}
			// Queued behind the toggle due at 15 ns, the callback runs after
			// the toggle queued the clock's commit, so what it schedules
			// with zero delay runs after that commit, in the same delta.
			s.Schedule(5*sim.Nanosecond, func() {
				s.Schedule(0, func() {
					s.Clocked("b", clk, func() { at = append(at, fmt.Sprintf("b@%d", s.Now())) })
				})
			})
			if err := s.RunThrough(25 * sim.Nanosecond); err != nil {
				t.Fatal(err)
			}
			want := []string{"a@5000", "a@15000", "a@25000", "b@25000"}
			if !reflect.DeepEqual(at, want) {
				t.Errorf("plain=%v compiled=%v: ran %v, want %v", plain, compiled, at, want)
			}
		}
	}
}

// cycleSeeds returns differential-harness programs that exercise cycle
// stepping: clocked processes on the clock with stimulus on falling edges
// (op 9), and ones that gain a level watcher or a waker on the clock
// (op 10) or a clocked process registered after Compile (op 11) mid-run.
// They seed the FuzzKernelEquivalence corpus.
func cycleSeeds() [][]byte {
	return [][]byte{
		// Two inputs, a register and two parkers, stimulus on falling edges.
		{0, 7, 0, 0, 3, 1, 8, 1, 2, 0x01, 8, 2, 1, 0x12,
			9, 0, 0x42, 3, 9, 1, 1, 7, 4, 0, 0x17, 0, 21, 9, 0, 0x99, 12},
		// A clocked process registered mid-run, then a level watcher on clk.
		{0, 7, 0, 0, 8, 1, 2, 0x00, 11, 1, 2, 1, 30,
			4, 0, 0x11, 0, 9, 9, 1, 0x05, 14, 10, 0, 70, 9, 0, 0x33, 40},
		// A parker that starts waking on clk mid-run.
		{0, 3, 3, 1, 8, 1, 1, 0x03, 8, 2, 1, 0x21,
			9, 0, 0x0a, 4, 10, 1, 50, 4, 0, 0x05, 0, 80},
	}
}

// TestCycleSeedsFold keeps the cycle-stepping corpus meaningful: every
// cycle seed folds falling edges on both kernels.
func TestCycleSeedsFold(t *testing.T) {
	for i, data := range cycleSeeds() {
		for _, compiled := range []bool{false, true} {
			if n := runDiffKernel(data, compiled, nil, diffRun, false).folded; n == 0 {
				t.Errorf("cycle seed %d compiled=%v folded nothing", i+1, compiled)
			}
			if diff := compareCycleStep(data, compiled); diff != "" {
				t.Errorf("cycle seed %d compiled=%v: %s", i+1, compiled, diff)
			}
		}
	}
}

// Further Clocks on a clocked signal chain behind the signal's kernel
// clock, and every toggle runs in place. The signal, a process on it and
// every counter behave as with hand-written generators, each a driver and
// a rescheduling callback: the generators' toggles share some instants
// and conflict (X) between them.
func TestSecondClockOnSignal(t *testing.T) {
	run := func(compiled, kernel bool) string {
		s := New()
		clk := s.Bit("clk", U)
		for _, period := range []sim.Duration{cyclePeriod, cyclePeriod, 3 * cyclePeriod} {
			if kernel {
				s.Clock(clk, period)
				continue
			}
			d := clk.Driver("clkgen:clk")
			d.SetBit(L0)
			val := L0
			var tick func()
			tick = func() {
				val = L0 + L1 - val
				d.SetBit(val)
				s.Schedule(period/2, tick)
			}
			s.Schedule(period/2, tick)
		}
		var log []string
		s.Process("p", func() { log = append(log, fmt.Sprintf("p@%d=%s", s.Now(), clk.Val())) }, clk)
		clk.OnChange(func(now sim.Time, old, new LV) { log = append(log, fmt.Sprintf("%d %s->%s", now, old, new)) })
		if compiled {
			s.MustCompile()
		}
		if err := s.RunThrough(200 * sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("events=%d runs=%d deltas=%d points=%d %v",
			s.Events(), s.ProcessRuns(), s.DeltaCycles(), s.TimePoints(), log)
	}
	for _, compiled := range []bool{false, true} {
		got, want := run(compiled, true), run(compiled, false)
		if got != want {
			t.Errorf("compiled=%v: three Clocks\n%s\nhand-written generators\n%s", compiled, got, want)
		}
		if !strings.Contains(got, "p@") || !strings.Contains(got, "->X") {
			t.Errorf("compiled=%v: no process run or no conflict: %s", compiled, got)
		}
	}
}

// Reading Prev after word-only commits materializes it into a vector of
// its own. The clock's first compiled commit leaves prev on the vector its
// driver assigned before Compile, a shared bitLV constant; unpacking into
// that slice would turn the process-wide constant for '0' into '1'.
func TestPrevLeavesSharedVectors(t *testing.T) {
	s := New()
	clk := s.Bit("clk", U)
	s.Clock(clk, cyclePeriod)
	s.Clocked("p", clk, func() {})
	s.MustCompile()
	for i := 1; i <= 6; i++ {
		at := sim.Time(i) * cyclePeriod / 2
		if err := s.RunThrough(at); err != nil {
			t.Fatal(err)
		}
		want := "1" // after a falling edge
		if i%2 == 1 {
			want = "0"
		}
		if got := clk.Prev().String(); got != want {
			t.Errorf("at %v: Prev() = %s, want %s", at, got, want)
		}
		if bitLV[L0][0] != L0 || bitLV[L1][0] != L1 {
			t.Fatalf("at %v: the shared one-bit vectors read %v and %v", at, bitLV[L0], bitLV[L1])
		}
	}
}
