package atm

import (
	"testing"
	"testing/quick"

	"castanet/internal/sim"
)

func TestGCRAConformingCBR(t *testing.T) {
	// A perfectly periodic stream at the contracted rate always conforms.
	g := NewGCRA(1e6, 0) // 1 Mcell/s, zero tolerance
	period := sim.Microsecond
	for i := 0; i < 1000; i++ {
		if !g.Arrive(sim.Time(i) * period) {
			t.Fatalf("cell %d of exact-rate stream non-conforming", i)
		}
	}
}

func TestGCRARejectsBurst(t *testing.T) {
	g := NewGCRA(1e6, 0)
	if !g.Arrive(0) {
		t.Fatal("first cell must conform")
	}
	// Back-to-back cell with zero tolerance must fail.
	if g.Arrive(10 * sim.Nanosecond) {
		t.Fatal("burst cell conformed with tau=0")
	}
	if g.NonConforming != 1 || g.Conforming != 1 {
		t.Fatalf("counters = %d/%d", g.Conforming, g.NonConforming)
	}
}

func TestGCRAToleranceAdmitsJitter(t *testing.T) {
	// With tau = T/2, cells jittered by up to half a period conform.
	g := NewGCRA(1e6, 500*sim.Nanosecond)
	times := []sim.Time{0, 600, 2100, 2900, 4000} // ns-ish pattern around 1us spacing
	for i, tt := range times {
		if !g.Arrive(tt * sim.Nanosecond) {
			t.Fatalf("jittered cell %d non-conforming", i)
		}
	}
}

// Property: GCRA (virtual scheduling) and the leaky bucket are the same
// algorithm (I.371 states both formulations are equivalent).
func TestGCRALeakyBucketEquivalence(t *testing.T) {
	f := func(gaps []uint16, tauSel uint8) bool {
		tau := sim.Duration(tauSel) * 100 * sim.Nanosecond
		g := NewGCRA(1e6, tau)
		b := NewLeakyBucket(1e6, tau)
		now := sim.Time(0)
		for _, gap := range gaps {
			now += sim.Duration(gap) * 10 * sim.Nanosecond
			if g.Arrive(now) != b.Arrive(now) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTranslator(t *testing.T) {
	tr := NewTranslator()
	in := VC{VPI: 1, VCI: 100}
	tr.Add(in, Route{Port: 2, Out: VC{VPI: 9, VCI: 900}})
	r, ok := tr.Lookup(in)
	if !ok || r.Port != 2 || r.Out.VCI != 900 {
		t.Fatalf("lookup = %+v, %v", r, ok)
	}
	if _, ok := tr.Lookup(VC{VPI: 5, VCI: 5}); ok {
		t.Fatal("unknown VC resolved")
	}
	tr.Remove(in)
	if tr.Len() != 0 {
		t.Fatal("remove failed")
	}
}

// LeakyBucket is the continuous-state leaky bucket equivalent of GCRA,
// kept as an independent implementation so the two can be cross-checked in
// tests (dual formulation property of I.371).
type LeakyBucket struct {
	T   sim.Duration
	Tau sim.Duration

	level   sim.Duration // bucket content
	lastT   sim.Time
	started bool
}

// NewLeakyBucket mirrors NewGCRA.
func NewLeakyBucket(cellsPerSecond float64, tau sim.Duration) *LeakyBucket {
	return &LeakyBucket{T: sim.FromSeconds(1 / cellsPerSecond), Tau: tau}
}

// Arrive processes an arrival and reports conformance.
func (b *LeakyBucket) Arrive(t sim.Time) bool {
	if !b.started {
		b.started = true
		b.lastT = t
		b.level = b.T
		return true
	}
	drained := b.level - (t - b.lastT)
	if drained < 0 {
		drained = 0
	}
	if drained > b.Tau {
		// Non-conforming: bucket unchanged apart from drain.
		b.level = drained
		b.lastT = t
		return false
	}
	b.level = drained + b.T
	b.lastT = t
	return true
}
