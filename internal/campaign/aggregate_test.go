package campaign

import (
	"math"
	"math/big"
	"testing"

	"castanet/internal/sim"
)

// wideFloats draws n finite float64 values of both signs whose exponents
// span the whole float64 range, subnormals included.
func wideFloats(seed uint64, n int) []float64 {
	rng := sim.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		bits := rng.Uint64()
		if (bits>>52)&0x7ff == 0x7ff { // Inf or NaN: clear the top exponent bit
			bits &^= 1 << 62
		}
		out[i] = math.Float64frombits(bits)
	}
	return out
}

// bigSum is the correctly rounded sum of vs, computed at a precision that
// holds any float64 sum exactly.
func bigSum(vs []float64) float64 {
	acc := new(big.Float).SetPrec(2400)
	for _, v := range vs {
		acc.Add(acc, big.NewFloat(v))
	}
	f, _ := acc.Float64()
	return f
}

// TestExactSumCorrectlyRounded: the exact sum rounds to the float64
// nearest the true sum, whatever the order of the adds or the grouping of
// the merges.
func TestExactSumCorrectlyRounded(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		vs := wideFloats(seed, 64)
		// Mix magnitudes that cancel: the true sum is often far smaller
		// than its largest terms.
		vs = append(vs, -vs[0], vs[1]*0.5, -vs[1]*0.5, 1, 1e-300)
		want := bigSum(vs)

		serial := sumOf(vs...)
		if got := serial.round(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: serial sum %v, want %v", seed, got, want)
		}
		for _, groups := range []int{2, 3, 7} {
			var merged exactSum
			for g := groups - 1; g >= 0; g-- {
				var part exactSum
				for i := len(vs) - 1 - g; i >= 0; i -= groups {
					part.add(vs[i])
				}
				merged.merge(part)
			}
			if got := merged.round(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: %d-way merged sum %v, want %v", seed, groups, got, want)
			}
		}
	}
}

// TestExactSumEdges covers what a float64 running sum gets wrong or
// order-dependent: cancellation, intermediate overflow, subnormals, and
// non-finite terms.
func TestExactSumEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		vs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"cancel", []float64{1e16, 1, -1e16}, 1},
		{"tenths", []float64{0.1, 0.2, 0.3, -0.6}, bigSum([]float64{0.1, 0.2, 0.3, -0.6})},
		{"overflow and back", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64},
		{"beyond range", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{"below range", []float64{-math.MaxFloat64, -math.MaxFloat64}, math.Inf(-1)},
		{"subnormals", []float64{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -3e-320}, 2*math.SmallestNonzeroFloat64 - 3e-320},
		{"inf", []float64{1, math.Inf(1), 2}, math.Inf(1)},
		{"opposite infs", []float64{math.Inf(-1), 5, math.Inf(1)}, math.NaN()},
		{"nan", []float64{1, math.NaN()}, math.NaN()},
	} {
		s := sumOf(tc.vs...)
		got := s.round()
		if got != tc.want && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("%s: sum %v, want %v", tc.name, got, tc.want)
		}
	}

	// The carry propagation due after 2^30 adds keeps the value.
	s := sumOf(0.75, -2)
	s.pending = 1<<30 - 1
	s.add(0.5)
	if s.pending != 0 || s.round() != -0.75 {
		t.Errorf("after the periodic carry: pending %d, sum %v, want 0 and -0.75", s.pending, s.round())
	}
}

// TestObserveDoesNotAllocate: the exact accumulator lives inside the stat
// aggregate, so an observation costs no allocation.
func TestObserveDoesNotAllocate(t *testing.T) {
	a := newAgg()
	a.observe("x", 1)
	v := 0.1
	if n := testing.AllocsPerRun(1000, func() {
		a.observe("x", v)
		v *= -1.0001
	}); n != 0 {
		t.Errorf("observe allocates %v times per call, want 0", n)
	}
}
