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

func TestTimeWeightedAverage(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Set(10*Nanosecond, 4) // value 0 for 10ns
	w.Set(30*Nanosecond, 2) // value 4 for 20ns
	// value 2 for 10ns -> horizon 40ns
	got := w.Average(40 * Nanosecond)
	want := (0*10 + 4*20 + 2*10) / 40.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Average = %v, want %v", got, want)
	}
	if w.Max() != 4 {
		t.Errorf("Max = %v, want 4", w.Max())
	}
}

func TestTimeWeightedEdgeCases(t *testing.T) {
	var w TimeWeighted
	if w.Average(100) != 0 {
		t.Error("average before any Set should be 0")
	}
	w.Set(50*Nanosecond, 3)
	if w.Average(50*Nanosecond) != 3 {
		t.Error("average at first instant should be the value")
	}
}
