package sim

import (
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500, "500ps"},
		{Nanosecond, "1ns"},
		{1500 * Picosecond, "1.5ns"},
		{Microsecond, "1us"},
		{2730 * Nanosecond, "2.73us"},
		{Millisecond, "1ms"},
		{Second, "1s"},
		{Never, "never"},
		{-Microsecond, "-1us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestClockPeriod(t *testing.T) {
	if p := ClockPeriod(20e6); p != 50*Nanosecond {
		t.Errorf("ClockPeriod(20MHz) = %v, want 50ns", p)
	}
	if p := ClockPeriod(1e9); p != Nanosecond {
		t.Errorf("ClockPeriod(1GHz) = %v, want 1ns", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("ClockPeriod(0) did not panic")
		}
	}()
	ClockPeriod(0)
}

func TestSecondsRoundTrip(t *testing.T) {
	x := FromSeconds(2.726e-6)
	if got := x.Seconds(); got < 2.725e-6 || got > 2.727e-6 {
		t.Errorf("round trip = %g", got)
	}
}
