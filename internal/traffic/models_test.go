package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"castanet/internal/sim"
)

func drain(m Model, rng *sim.RNG, n int) (total sim.Duration, gaps []sim.Duration) {
	gaps = make([]sim.Duration, n)
	for i := 0; i < n; i++ {
		gaps[i] = m.Next(rng)
		if gaps[i] < 0 {
			panic("negative gap")
		}
		total += gaps[i]
	}
	return total, gaps
}

func TestCBRExactRate(t *testing.T) {
	m := NewCBR(1e6)
	rng := sim.NewRNG(1)
	total, gaps := drain(m, rng, 1000)
	if total != 1000*sim.Microsecond {
		t.Fatalf("1000 cells at 1 Mcell/s took %v", total)
	}
	for _, g := range gaps {
		if g != sim.Microsecond {
			t.Fatal("CBR jittered")
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	m := NewPoisson(1e6)
	rng := sim.NewRNG(2)
	total, _ := drain(m, rng, 100000)
	rate := 100000 / total.Seconds()
	if math.Abs(rate-1e6)/1e6 > 0.02 {
		t.Errorf("Poisson rate = %v, want ~1e6", rate)
	}
}

func TestOnOffMeanRate(t *testing.T) {
	m := &OnOff{
		PeakInterval: 10 * sim.Microsecond, // 100 kcell/s peak
		MeanOn:       sim.Millisecond,
		MeanOff:      sim.Millisecond,
	}
	want := m.MeanRate() // 50 kcell/s
	rng := sim.NewRNG(3)
	total, _ := drain(m, rng, 200000)
	rate := 200000 / total.Seconds()
	if math.Abs(rate-want)/want > 0.05 {
		t.Errorf("OnOff rate = %v, want ~%v", rate, want)
	}
}

func TestOnOffBurstiness(t *testing.T) {
	// Gaps must be either the peak interval or longer (OFF periods), never
	// shorter.
	m := &OnOff{PeakInterval: 10 * sim.Microsecond, MeanOn: sim.Millisecond, MeanOff: 5 * sim.Millisecond}
	rng := sim.NewRNG(4)
	_, gaps := drain(m, rng, 10000)
	long := 0
	for _, g := range gaps {
		if g < 10*sim.Microsecond {
			t.Fatalf("gap %v below peak interval", g)
		}
		if g > 100*sim.Microsecond {
			long++
		}
	}
	if long == 0 {
		t.Error("no OFF periods observed")
	}
}

func TestMMPP2RateBetweenStates(t *testing.T) {
	// Short sojourns give many modulation cycles, so the empirical rate
	// concentrates near the time average (r1+r2)/2.
	m := &MMPP2{Rate1: 1e5, Rate2: 1e6, Sojourn1: 100 * sim.Microsecond, Sojourn2: 100 * sim.Microsecond}
	rng := sim.NewRNG(5)
	total, _ := drain(m, rng, 400000)
	rate := 400000 / total.Seconds()
	// Equal sojourns: mean rate = (1e5+1e6)/2 = 5.5e5.
	if math.Abs(rate-5.5e5)/5.5e5 > 0.05 {
		t.Errorf("MMPP2 rate = %v, want ~5.5e5", rate)
	}
}

func TestTraceWrapsAround(t *testing.T) {
	tr := &Trace{Intervals: []sim.Duration{1, 2, 3}}
	rng := sim.NewRNG(1)
	var got []sim.Duration
	for i := 0; i < 7; i++ {
		got = append(got, tr.Next(rng))
	}
	want := []sim.Duration{1, 2, 3, 1, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace replay = %v", got)
		}
	}
}

func TestSuperpositionRate(t *testing.T) {
	// Three CBR sources at 1e5 each superpose to 3e5.
	s := &Superposition{Models: []Model{NewCBR(1e5), NewCBR(1e5), NewCBR(1e5)}}
	rng := sim.NewRNG(6)
	total, _ := drain(s, rng, 30000)
	rate := 30000 / total.Seconds()
	if math.Abs(rate-3e5)/3e5 > 0.01 {
		t.Errorf("superposed rate = %v, want 3e5", rate)
	}
}

// Property: superposition preserves event ordering — gaps are never
// negative and the merged rate is at least the max single rate.
func TestSuperpositionNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		s := &Superposition{Models: []Model{NewPoisson(1e5), NewCBR(2e5), NewPoisson(5e4)}}
		rng := sim.NewRNG(seed)
		for i := 0; i < 500; i++ {
			if s.Next(rng) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMPEGFrameStructure(t *testing.T) {
	ct := 3 * sim.Microsecond
	m := DefaultMPEG(ct)
	rng := sim.NewRNG(7)
	total, gaps := drain(m, rng, 50000)
	// Mean bit rate: GoP mean frame = (16000+2*8000*... ) compute:
	// pattern IBBPBBPBBPBB: 1 I, 3 P, 8 B = (16000+3*8000+8*3000)/12 = 5333B.
	// 25 fps -> ~133 kB/s -> in cells/s: 133333/48 ≈ 2778 cells/s.
	rate := 50000 / total.Seconds()
	if rate < 1500 || rate > 4500 {
		t.Errorf("MPEG cell rate = %v cells/s, want ~2800", rate)
	}
	// Bursts: many gaps equal to the cell time, separated by frame gaps.
	burst, idle := 0, 0
	for _, g := range gaps {
		if g == ct {
			burst++
		} else if g > sim.Millisecond {
			idle++
		}
	}
	if burst == 0 || idle == 0 {
		t.Errorf("MPEG not bursty: %d burst gaps, %d idle gaps", burst, idle)
	}
}

func TestTraceRoundTripFile(t *testing.T) {
	var buf strings.Builder
	rng := sim.NewRNG(8)
	src := NewPoisson(1e6)
	if err := WriteTrace(&buf, src, rng, 100); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Intervals) != 100 {
		t.Fatalf("read %d intervals", len(tr.Intervals))
	}
	// Replaying the trace must reproduce the recorded stream exactly.
	rng2 := sim.NewRNG(8)
	src2 := NewPoisson(1e6)
	for i := 0; i < 100; i++ {
		if tr.Intervals[i] != src2.Next(rng2) {
			t.Fatalf("trace replay diverges at %d", i)
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("# empty\n")); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := ReadTrace(strings.NewReader("abc\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(strings.NewReader("-5\n")); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestValidate(t *testing.T) {
	good := []Model{
		NewCBR(1e6),
		NewPoisson(1e5),
		&OnOff{PeakInterval: 1, MeanOn: 1, MeanOff: 1},
		&MMPP2{Rate1: 1, Rate2: 1, Sojourn1: 1, Sojourn2: 1},
		&Trace{Intervals: []sim.Duration{1}},
		&Superposition{Models: []Model{NewCBR(1)}},
	}
	for _, m := range good {
		if err := Validate(m); err != nil {
			t.Errorf("Validate(%T) = %v", m, err)
		}
	}
	bad := []Model{
		&CBR{},
		&Poisson{},
		&OnOff{},
		&MMPP2{},
		&Trace{},
		&Superposition{},
		&Superposition{Models: []Model{&CBR{}}},
	}
	for _, m := range bad {
		if err := Validate(m); err == nil {
			t.Errorf("Validate(%T) accepted invalid model", m)
		}
	}
}

func TestParetoOnOffBurstiness(t *testing.T) {
	m := &ParetoOnOff{
		PeakInterval: 10 * sim.Microsecond,
		MeanOn:       sim.Millisecond,
		MeanOff:      sim.Millisecond,
		Alpha:        1.5,
	}
	rng := sim.NewRNG(21)
	_, gaps := drain(m, rng, 50000)
	var offPeriods []float64
	for _, g := range gaps {
		if g < 10*sim.Microsecond {
			t.Fatalf("gap %v below peak interval", g)
		}
		if g > 10*sim.Microsecond {
			offPeriods = append(offPeriods, (g - 10*sim.Microsecond).Seconds())
		}
	}
	if len(offPeriods) == 0 {
		t.Fatal("no OFF periods")
	}
	// Heavy tail: the largest OFF period dwarfs the median by far more
	// than an exponential would allow.
	maxOff, medOff := 0.0, median(offPeriods)
	for _, v := range offPeriods {
		if v > maxOff {
			maxOff = v
		}
	}
	if maxOff/medOff < 50 {
		t.Errorf("max/median OFF = %.1f, want heavy tail (>50)", maxOff/medOff)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func TestParetoAlphaValidation(t *testing.T) {
	m := &ParetoOnOff{PeakInterval: 1, MeanOn: 1, MeanOff: 1, Alpha: 1.0}
	defer func() {
		if recover() == nil {
			t.Error("alpha <= 1 accepted")
		}
	}()
	m.Next(sim.NewRNG(1))
}

// ReadTrace parses a trace written by WriteTrace (the format atmgen
// emits), so the round-trip test checks the writer against it.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var intervals []sim.Duration
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %v", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("traffic: trace line %d: negative interval", line)
		}
		intervals = append(intervals, sim.Duration(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(intervals) == 0 {
		return nil, fmt.Errorf("traffic: trace contains no intervals")
	}
	return &Trace{Intervals: intervals}, nil
}
