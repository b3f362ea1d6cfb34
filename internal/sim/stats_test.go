package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if m := a.Mean(); math.Abs(m-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Sample variance of that classic set is 32/7.
	if v := a.Var(); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", v, 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Error("empty accumulator not all-zero")
	}
}

// Property: mean is always within [min, max].
func TestAccumulatorMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			a.Add(x)
		}
		if a.N() > 0 {
			ok = a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
